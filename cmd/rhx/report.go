package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// cmdReport runs the complete reproduction — every characterization
// table/figure, the Table 6 system configuration and the mitigation
// evaluation — and prints one consolidated report, suitable for
// regenerating EXPERIMENTS.md's measured columns. Every section is a
// spec executed through the experiment registry, the same path
// `rhx run` uses.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("rhx report", flag.ExitOnError)
	var (
		quick    = fs.Bool("quick", false, "tiny scale, seconds")
		full     = fs.Bool("full", false, "full scale, hours")
		parallel = fs.Int("parallel", 0, "concurrent experiment tasks (0 = all cores; output is identical for any value)")
		seed     = fs.Uint64("seed", 1, "seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cp := core.CharParams{Scale: "small", Chips: 4}
	mp := core.Fig10Params{
		Mixes: 12, Cores: 8, TraceRecords: 3000,
		WarmupInsts: 5000, MeasureInsts: 30000,
	}
	switch {
	case *quick:
		cp = core.CharParams{Scale: "tiny", Chips: 1, Iterations: 3, Stride: 2}
		mp.Mixes = 2
		mp.Cores = 4
		mp.MeasureInsts = 10000
		mp.HCSweep = []int{100_000, 2_000, 256}
	case *full:
		cp = core.CharParams{Scale: "medium", Chips: -1}
		mp = core.Fig10Params{} // registry defaults = the paper's full sweep
	}
	ctx := signalContext()
	ex := core.Exec{Parallelism: *parallel}

	// run executes one named experiment and returns its artifact.
	run := func(name string, params any) (core.Artifact, error) {
		spec, err := core.NewSpec(name, *seed, params)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res, err := core.RunContext(ctx, spec, ex)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return res.Artifact()
	}
	format := func(name string, params any) func() (string, error) {
		return func() (string, error) {
			art, err := run(name, params)
			if err != nil {
				return "", err
			}
			return art.Format(), nil
		}
	}

	sections := []struct {
		name string
		text func() (string, error)
	}{
		{"table1", format("table1", cp)},
		{"table2", format("table2", cp)},
		{"figure4+table3", func() (string, error) {
			// Table 3 is a different rendering of Figure 4's cells; run
			// the grid once and derive both views.
			art, err := run("fig4", cp)
			if err != nil {
				return "", err
			}
			f := art.(*core.Figure4)
			return f.Format() + "\n" + (&core.Table3{Rows: f.Rows}).Format(), nil
		}},
		{"figure5", format("fig5", cp)},
		{"figure6", format("fig6", cp)},
		{"figure7", format("fig7", cp)},
		{"figure8+table4", func() (string, error) {
			art, err := run("fig8", cp)
			if err != nil {
				return "", err
			}
			s := art.(*core.Figure8)
			return s.FormatFigure8() + "\n" + s.FormatTable4(), nil
		}},
		{"figure9", format("fig9", cp)},
		{"table5", format("table5", cp)},
		{"table6", func() (string, error) { return table6(), nil }},
		{"figure10", format("fig10", mp)},
	}

	start := time.Now()
	fmt.Println("=== RowHammer revisited: reproduction report ===")
	fmt.Println()
	for _, s := range sections {
		t0 := time.Now()
		text, err := s.text()
		if err != nil {
			return err
		}
		fmt.Println(text)
		fmt.Printf("  [%s in %v]\n\n", s.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("=== report complete in %v ===\n", time.Since(start).Round(time.Second))
	return nil
}

// table6 renders the simulated system configuration of the paper's
// Table 6: the 8-core processor the Figure 10 mixes run on, its cache,
// memory controller and DDR4 main memory.
func table6() string {
	const cores = 8
	sc := sim.Table6Config(0, 0)
	var sb strings.Builder
	sb.WriteString("Table 6: simulated system configuration\n")
	fmt.Fprintf(&sb, "  Processor        %d GHz, %d-core, %d-wide issue, %d-entry instr. window\n",
		sc.CPUFreqMHz/1000, cores, sc.Core.IssueWidth, sc.Core.WindowSize)
	fmt.Fprintf(&sb, "  Last-level cache %d-byte lines, %d-way, %d MiB\n",
		sc.LLC.LineBytes, sc.LLC.Assoc, sc.LLC.SizeBytes>>20)
	fmt.Fprintf(&sb, "  Memory ctrl.     %d-entry read queue, FR-FCFS, write drain\n", sc.Ctrl.ReadQueue)
	fmt.Fprintf(&sb, "  Main memory      DDR4-2400, 1 channel, %d rank, %d bank groups × %d banks, %d rows/bank\n",
		sc.Geo.Ranks, sc.Geo.BankGroups, sc.Geo.BanksPerGroup, sc.Geo.Rows)
	fmt.Fprintf(&sb, "  Timings          tRC=%.1fns tRCD=%d tRP=%d tCL=%d tRFC=%d tREFI=%d (cycles)\n",
		sc.T.TRCNanos(), sc.T.RCD, sc.T.RP, sc.T.CL, sc.T.RFC, sc.T.REFI)
	return sb.String()
}
