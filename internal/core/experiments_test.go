package core

import (
	"context"
	"strings"
	"testing"
)

// tinyChar keeps experiment tests fast: tiny chips, one chip per
// config, two iterations.
var tinyChar = CharParams{Scale: "tiny", Stride: 1, Chips: 1, Iterations: 2}

// runArtifact runs one experiment unsharded through RunContext and
// returns its typed artifact.
func runArtifact[A Artifact](t testing.TB, name string, seed uint64, params any, ex Exec) A {
	t.Helper()
	spec, err := NewSpec(name, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), spec, ex)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	art, err := res.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	a, ok := art.(A)
	if !ok {
		t.Fatalf("%s artifact is %T", name, art)
	}
	return a
}

func TestRunTable1CensusMatchesPaper(t *testing.T) {
	t1 := runArtifact[*Table1](t, "table1", 1, tinyChar, Exec{})
	totalChips, totalModules := 0, 0
	for _, r := range t1.Rows {
		totalChips += r.Chips
		totalModules += r.Modules
	}
	if totalModules != 300 {
		t.Errorf("modules = %d, want 300", totalModules)
	}
	// Tables 7/8 chip sums: DDR3 656, DDR4 832 (the paper's Table 1
	// headline counts differ slightly from its own appendix); LPDDR4 520.
	if totalChips < 1500 || totalChips > 2100 {
		t.Errorf("chips = %d, want ≈1580 (Tables 7/8 + LPDDR4 census)", totalChips)
	}
	out := t1.Format()
	if !strings.Contains(out, "LPDDR4-1y") {
		t.Errorf("Table 1 output missing LPDDR4-1y:\n%s", out)
	}
}

func TestRunTable2MatchesPaperFractions(t *testing.T) {
	t2 := runArtifact[*Table2](t, "table2", 1, tinyChar, Exec{})
	want := map[string][2]int{
		"DDR3-old/Mfr.A": {24, 80},
		"DDR3-old/Mfr.B": {0, 88},
		"DDR3-old/Mfr.C": {0, 28},
		"DDR3-new/Mfr.A": {8, 80},
		"DDR3-new/Mfr.B": {44, 52},
		"DDR3-new/Mfr.C": {96, 104},
	}
	if len(t2.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(t2.Rows), len(want))
	}
	for _, r := range t2.Rows {
		w, ok := want[r.Key.String()]
		if !ok {
			t.Errorf("unexpected row %v", r.Key)
			continue
		}
		if r.Vulnerable != w[0] || r.Total != w[1] {
			t.Errorf("%v = %d/%d, want %d/%d", r.Key, r.Vulnerable, r.Total, w[0], w[1])
		}
	}
}

func TestRunTable3RecoversWorstPatterns(t *testing.T) {
	t3 := runArtifact[*Table3](t, "table3", 1, tinyChar, Exec{})
	if len(t3.Rows) == 0 {
		t.Fatal("no rows")
	}
	matched, measured := 0, 0
	for _, r := range t3.Rows {
		if !r.WorstOK {
			continue
		}
		measured++
		if r.Worst == r.PaperWorst || r.Worst == r.PaperWorst.Inverse() {
			matched++
		}
	}
	if measured == 0 {
		t.Fatal("no configuration produced enough flips")
	}
	if matched*3 < measured*2 {
		t.Errorf("only %d/%d measured worst patterns match the calibration", matched, measured)
	}
}

func TestRunFigure5SlopesPositive(t *testing.T) {
	f5 := runArtifact[*Figure5](t, "fig5", 1, tinyChar, Exec{})
	if len(f5.Rows) == 0 {
		t.Fatal("no series")
	}
	for _, s := range f5.Rows {
		nonzero := 0
		lo, hi := 0.0, 0.0
		for _, r := range s.Points {
			if r > 0 {
				nonzero++
				if lo == 0 || r < lo {
					lo = r
				}
				if r > hi {
					hi = r
				}
			}
		}
		// A flat curve (e.g. an ECC chip whose only observable word
		// saturates at tiny scale) carries no slope information.
		if nonzero >= 3 && hi > 2*lo && s.Slope <= 0 {
			t.Errorf("%v: log-log slope %.2f not positive (Observation 4)", s.Key, s.Slope)
		}
	}
}

func TestRunHCFirstStudyOrdering(t *testing.T) {
	study := runArtifact[*Figure8](t, "fig8", 1, tinyChar, Exec{}).HCFirstStudy
	byKey := map[string]HCFirstRow{}
	for _, r := range study.Rows {
		byKey[r.Key.String()] = r
	}
	// Observation 10: newer nodes have lower minimum HCfirst. With one
	// chip per config we check the headline orderings that drive the
	// paper's conclusion.
	pairs := [][2]string{
		{"LPDDR4-1y/Mfr.A", "LPDDR4-1x/Mfr.A"},
		{"DDR4-new/Mfr.A", "DDR4-old/Mfr.A"},
		{"DDR4-new/Mfr.C", "DDR4-old/Mfr.C"},
	}
	for _, p := range pairs {
		newer, okN := byKey[p[0]]
		older, okO := byKey[p[1]]
		if !okN || !okO || len(newer.Measured) == 0 || len(older.Measured) == 0 {
			t.Errorf("missing data for %v vs %v", p[0], p[1])
			continue
		}
		if newer.MinHC >= older.MinHC {
			t.Errorf("%s min HCfirst (%.0f) not below %s (%.0f)",
				p[0], newer.MinHC, p[1], older.MinHC)
		}
	}
	if out := study.FormatTable4(); !strings.Contains(out, "Table 4") {
		t.Error("FormatTable4 output malformed")
	}
	if out := study.FormatFigure8(); !strings.Contains(out, "Figure 8") {
		t.Error("FormatFigure8 output malformed")
	}
}

func TestRunFigure9Multipliers(t *testing.T) {
	p := tinyChar
	p.Chips = 2
	f9 := runArtifact[*Figure9](t, "fig9", 1, p, Exec{})
	if len(f9.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range f9.Rows {
		if r.MeanHC[1] <= 0 {
			continue
		}
		if r.MeanHC[2] > 0 && r.MeanHC[2] < r.MeanHC[1] {
			t.Errorf("%v: HC(2) %.0f < HC(1) %.0f", r.Key, r.MeanHC[2], r.MeanHC[1])
		}
		for _, m := range r.Multipliers[1] {
			if m < 1 {
				t.Errorf("%v: multiplier %v < 1", r.Key, m)
			}
		}
	}
}

func TestRunFigure10MiniSweep(t *testing.T) {
	p := Fig10Params{
		Mixes:        2,
		Cores:        2,
		TraceRecords: 1_000,
		WarmupInsts:  1_000,
		MeasureInsts: 8_000,
		HCSweep:      []int{100_000, 2_000, 256},
		Mechanisms:   []MechanismID{MechPARA, MechIdeal, MechProHIT},
	}
	f10 := runArtifact[*Figure10](t, "fig10", 3, p, Exec{})
	para := f10.PointsFor(MechPARA)
	if len(para) != 3 {
		t.Fatalf("PARA evaluated at %d points, want 3", len(para))
	}
	// PARA's performance must degrade as HCfirst shrinks.
	if !(para[0].NormPerf >= para[2].NormPerf) {
		t.Errorf("PARA perf not monotone: %.1f%% at %d vs %.1f%% at %d",
			para[0].NormPerf, para[0].HCFirst, para[2].NormPerf, para[2].HCFirst)
	}
	// Ideal must dominate PARA at the lowest HCfirst.
	ideal := f10.PointsFor(MechIdeal)
	if len(ideal) != 3 {
		t.Fatalf("Ideal evaluated at %d points, want 3", len(ideal))
	}
	if ideal[2].NormPerf < para[2].NormPerf-1 {
		t.Errorf("Ideal (%.1f%%) below PARA (%.1f%%) at HCfirst=256",
			ideal[2].NormPerf, para[2].NormPerf)
	}
	// ProHIT only at its published point.
	prohit := f10.PointsFor(MechProHIT)
	if len(prohit) != 1 || prohit[0].HCFirst != 2_000 {
		t.Fatalf("ProHIT points = %+v, want single 2000 entry", prohit)
	}
	if out := f10.Format(); !strings.Contains(out, "normalized system performance") {
		t.Error("Figure 10 output malformed")
	}
}
