package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/faultmodel"
)

func table(fn func(w *tabwriter.Writer)) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fn(w)
	w.Flush()
	return sb.String()
}

// rawColumn is the pre-correction flips column the attack and trr-dodge
// tables carry for on-die ECC chips: v after a tab, or nothing.
func rawColumn(ecc bool, v any) string {
	if !ecc {
		return ""
	}
	return fmt.Sprintf("\t%v", v)
}

func hcK(v float64) string {
	if math.IsNaN(v) || v <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fk", v/1000)
}

// Format renders Table 1.
func (t *Table1) Format() string {
	return "Table 1: DRAM chips tested (chips (modules))\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "type-node\tMfr. A\tMfr. B\tMfr. C\tTotal")
		type cell struct{ chips, modules int }
		grid := map[string]map[string]cell{}
		var order []string
		for _, r := range t.Rows {
			tn := r.Node.String()
			if grid[tn] == nil {
				grid[tn] = map[string]cell{}
				order = append(order, tn)
			}
			grid[tn][r.Mfr] = cell{r.Chips, r.Modules}
		}
		for _, tn := range order {
			totC, totM := 0, 0
			fmt.Fprintf(w, "%s", tn)
			for _, mfr := range []string{"A", "B", "C"} {
				c, ok := grid[tn][mfr]
				if !ok {
					fmt.Fprintf(w, "\tN/A")
					continue
				}
				fmt.Fprintf(w, "\t%d (%d)", c.chips, c.modules)
				totC += c.chips
				totM += c.modules
			}
			fmt.Fprintf(w, "\t%d (%d)\n", totC, totM)
		}
	})
}

// Format renders Table 2.
func (t *Table2) Format() string {
	return "Table 2: DDR3 chips vulnerable to RowHammer at HC < 150k\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "type-node\tMfr.\tRowHammerable")
		for _, r := range t.Rows {
			fmt.Fprintf(w, "%v\t%s\t%d/%d\n", r.Key.Node, r.Key.Mfr, r.Vulnerable, r.Total)
		}
	})
}

// Format renders Figure 4 as per-pattern coverage percentages.
func (f *Figure4) Format() string {
	return fmt.Sprintf("Figure 4: data pattern coverage (%% of all observed flips), HC=%d\n", f.HC) +
		table(func(w *tabwriter.Writer) {
			fmt.Fprint(w, "config\tchip\tflips")
			for _, p := range faultmodel.FigurePatterns() {
				fmt.Fprintf(w, "\t%s", p.Short())
			}
			fmt.Fprintln(w)
			for _, r := range f.Rows {
				if r.TotalFlips == 0 {
					fmt.Fprintf(w, "%v\t%s\t(not enough bit flips)\n", r.Key, r.Chip)
					continue
				}
				fmt.Fprintf(w, "%v\t%s\t%d", r.Key, r.Chip, r.TotalFlips)
				for _, p := range faultmodel.FigurePatterns() {
					fmt.Fprintf(w, "\t%.0f%%", 100*r.Coverage[p])
				}
				fmt.Fprintln(w)
			}
		})
}

// Format renders Table 3.
func (t *Table3) Format() string {
	return "Table 3: worst-case data pattern per configuration\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "config\tmeasured worst\tcalibration (paper)\tmatch")
		for _, r := range t.Rows {
			if !r.WorstOK {
				fmt.Fprintf(w, "%v\t(not enough bit flips)\t%s\t-\n", r.Key, patternName(r.PaperWorst))
				continue
			}
			match := "yes"
			if r.Worst != r.PaperWorst && r.Worst != r.PaperWorst.Inverse() {
				match = "NO"
			}
			fmt.Fprintf(w, "%v\t%s\t%s\t%s\n", r.Key, patternName(r.Worst), patternName(r.PaperWorst), match)
		}
	})
}

// Format renders Figure 5 as an HC → rate table plus log-log slopes.
func (f *Figure5) Format() string {
	return "Figure 5: hammer count vs. RowHammer bit flip rate\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprint(w, "config\tchips")
		for _, hc := range f.HCs {
			fmt.Fprintf(w, "\t%dk", hc/1000)
		}
		fmt.Fprintln(w, "\tlog-log slope\tR2")
		for _, s := range f.Rows {
			fmt.Fprintf(w, "%v\t%d", s.Key, s.Chips)
			for _, hc := range f.HCs {
				r := s.Points[hc]
				if r == 0 {
					fmt.Fprint(w, "\t0")
				} else {
					fmt.Fprintf(w, "\t%.1e", r)
				}
			}
			fmt.Fprintf(w, "\t%.2f\t%.2f\n", s.Slope, s.R2)
		}
	})
}

// Format renders Figure 6 row-offset histograms.
func (f *Figure6) Format() string {
	return fmt.Sprintf("Figure 6: flip distribution by distance from the victim row (rate≈%.0e)\n", f.TargetRate) +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "config\tchips\toffset:fraction(±std)")
			for _, r := range f.Rows {
				fmt.Fprintf(w, "%v\t%d\t", r.Key, r.Chips)
				for i, off := range sortedOffsets(r.Mean) {
					if i > 0 {
						fmt.Fprint(w, "  ")
					}
					fmt.Fprintf(w, "%+d:%.3f(±%.3f)", off, r.Mean[off], r.StdDev[off])
				}
				fmt.Fprintln(w)
			}
		})
}

// Format renders Figure 7 word-density histograms.
func (f *Figure7) Format() string {
	return fmt.Sprintf("Figure 7: flips per 64-bit word (rate≈%.0e)\n", f.TargetRate) +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "config\tchips\t1 flip\t2 flips\t3 flips\t4 flips\t5+ flips")
			for _, r := range f.Rows {
				fmt.Fprintf(w, "%v\t%d", r.Key, r.Chips)
				for k := 1; k <= 5; k++ {
					fmt.Fprintf(w, "\t%.3f±%.3f", r.Fraction[k], r.StdDev[k])
				}
				fmt.Fprintln(w)
			}
		})
}

// FormatFigure8 renders the box-and-whisker statistics of the study.
func (s *HCFirstStudy) FormatFigure8() string {
	return "Figure 8: HCfirst distribution per configuration (hammers)\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "config\tchips\tno-flips\tmin\tQ1\tmedian\tQ3\tmax")
		for _, r := range s.Rows {
			if len(r.Measured) == 0 {
				fmt.Fprintf(w, "%v\t0\t%d\t(no bit flips)\n", r.Key, r.NoFlips)
				continue
			}
			fmt.Fprintf(w, "%v\t%d\t%d\t%s\t%s\t%s\t%s\t%s\n",
				r.Key, len(r.Measured), r.NoFlips,
				hcK(r.Box.Min), hcK(r.Box.Q1), hcK(r.Box.Median), hcK(r.Box.Q3), hcK(r.Box.Max))
		}
	})
}

// FormatTable4 renders the minimum HCfirst table with the paper's values.
func (s *HCFirstStudy) FormatTable4() string {
	return "Table 4: lowest HCfirst across all chips of each configuration\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "config\tmeasured min\tpaper\trel.err")
		for _, r := range s.Rows {
			if math.IsNaN(r.MinHC) {
				fmt.Fprintf(w, "%v\tno flips ≤150k\t%s\t-\n", r.Key, hcK(r.PaperMin))
				continue
			}
			rel := "-"
			if r.PaperMin > 0 && r.PaperMin <= 150_000 {
				rel = fmt.Sprintf("%+.0f%%", 100*(r.MinHC-r.PaperMin)/r.PaperMin)
			}
			fmt.Fprintf(w, "%v\t%s\t%s\t%s\n", r.Key, hcK(r.MinHC), hcK(r.PaperMin), rel)
		}
	})
}

// Format renders Figure 9.
func (f *Figure9) Format() string {
	return "Figure 9: HC to find the first 64-bit word with 1/2/3 flips, with multipliers\n" +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "config\tchips\tHC(1)\tHC(2)\tHC(3)\tmult 1→2\tmult 2→3")
			for _, r := range f.Rows {
				fmt.Fprintf(w, "%v\t%d\t%s\t%s\t%s", r.Key, r.Chips,
					hcK(r.MeanHC[1]), hcK(r.MeanHC[2]), hcK(r.MeanHC[3]))
				for k := 1; k <= 2; k++ {
					ms := r.Multipliers[k]
					if len(ms) == 0 {
						fmt.Fprint(w, "\t-")
						continue
					}
					mean := 0.0
					for _, m := range ms {
						mean += m
					}
					mean /= float64(len(ms))
					fmt.Fprintf(w, "\t%.2fx", mean)
				}
				fmt.Fprintln(w)
			}
		})
}

// Format renders Table 5.
func (t *Table5) Format() string {
	return fmt.Sprintf("Table 5: cells with monotonically increasing flip probability (%d iterations)\n", t.Iterations) +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "config\tcells\tmonotonic")
			for _, r := range t.Rows {
				fmt.Fprintf(w, "%v\t%d\t%.1f%%\n", r.Key, r.Cells, r.Percent)
			}
		})
}

// Format renders a module table (Tables 7 and 8).
func (t *ModuleTable) Format() string {
	return t.Title + "\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "module\tMfr.\tnode\tdate\tfreq\ttRC(ns)\tGB\tchips\tpins\tmin HCfirst")
		for _, m := range t.Modules {
			hc := "N/A"
			if m.MinHCFirst > 0 {
				hc = hcK(m.MinHCFirst)
			}
			date := m.Date
			if date == "" {
				date = "N/A"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%.2f\t%d\t%d\tx%d\t%s\n",
				m.ID, m.Mfr, m.Node.Node, date, m.FreqMTs, m.TRCns, m.SizeGB, m.Chips, m.PinWidth, hc)
		}
	})
}

// Format renders Figure 10 as two aligned tables (bandwidth overhead and
// normalized performance).
func (f *Figure10) Format() string {
	var sb strings.Builder
	mpkiMin, _ := minMax(f.MixMPKIs)
	_, mpkiMax := minMax(f.MixMPKIs)
	fmt.Fprintf(&sb, "Figure 10: mitigation mechanisms across %d mixes (MPKI %.0f–%.0f)\n",
		f.Mixes, mpkiMin, mpkiMax)

	mechs := map[MechanismID]bool{}
	var order []MechanismID
	for _, p := range f.Points {
		if !mechs[p.Mechanism] {
			mechs[p.Mechanism] = true
			order = append(order, p.Mechanism)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	sb.WriteString("\n(a) DRAM bandwidth overhead (%)\n")
	sb.WriteString(table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "mechanism\tHCfirst\toverhead%\tmin\tmax\tviable")
		for _, id := range order {
			for _, p := range f.PointsFor(id) {
				fmt.Fprintf(w, "%s\t%d\t%.3f\t%.3f\t%.3f\t%v\n",
					p.Mechanism, p.HCFirst, p.Overhead, p.OverheadMin, p.OverheadMax, p.Viable)
			}
		}
	}))
	sb.WriteString("\n(b) normalized system performance (%)\n")
	sb.WriteString(table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "mechanism\tHCfirst\tperf%\tmin\tmax\tviable")
		for _, id := range order {
			for _, p := range f.PointsFor(id) {
				fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\t%v\n",
					p.Mechanism, p.HCFirst, p.NormPerf, p.NormPerfMin, p.NormPerfMax, p.Viable)
			}
		}
	}))
	return sb.String()
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
