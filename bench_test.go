// Benchmarks regenerating every table and figure of the paper (one bench
// per artifact) plus design-choice ablations. Each iteration performs a
// complete, reduced-scale run of
// the corresponding experiment spec; `rhx run` and `rhx report` run the
// same specs at full scale.
package rowhammer_test

import (
	"context"
	"testing"

	rowhammer "repro"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// benchChar is the reduced characterization scale used per iteration.
var benchChar = core.CharParams{Scale: "tiny", Stride: 1, Chips: 1, Iterations: 2}

// runBench runs one experiment spec unsharded and returns its artifact.
func runBench(b *testing.B, name string, params any) core.Artifact {
	b.Helper()
	spec, err := core.NewSpec(name, 1, params)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.RunContext(context.Background(), spec, core.Exec{})
	if err != nil {
		b.Fatal(err)
	}
	art, err := res.Artifact()
	if err != nil {
		b.Fatal(err)
	}
	return art
}

func BenchmarkTable1Population(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := runBench(b, "table1", benchChar).(*core.Table1); len(t.Rows) == 0 {
			b.Fatal("empty census")
		}
	}
}

func BenchmarkTable2RowHammerable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := runBench(b, "table2", benchChar).(*core.Table2); len(t.Rows) != 6 {
			b.Fatalf("got %d rows", len(t.Rows))
		}
	}
}

func BenchmarkTable3WorstPattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runBench(b, "table3", benchChar)
	}
}

func BenchmarkTable4HCFirst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := runBench(b, "table4", benchChar).(*core.Table4); len(s.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable5Monotonicity(b *testing.B) {
	p := benchChar
	p.Iterations = 4
	p.Stride = 4
	for i := 0; i < b.N; i++ {
		runBench(b, "table5", p)
	}
}

func BenchmarkFigure4Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runBench(b, "fig4", benchChar)
	}
}

func BenchmarkFigure5RateVsHC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runBench(b, "fig5", benchChar)
	}
}

func BenchmarkFigure6Spatial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runBench(b, "fig6", benchChar)
	}
}

func BenchmarkFigure7WordDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runBench(b, "fig7", benchChar)
	}
}

func BenchmarkFigure8HCFirstDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = runBench(b, "fig8", benchChar).(*core.Figure8).FormatFigure8()
	}
}

func BenchmarkFigure9ECC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runBench(b, "fig9", benchChar)
	}
}

func BenchmarkTables7and8Modules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(runBench(b, "table7", nil).(*core.ModuleTable).Modules) != 110 {
			b.Fatal("DDR4 module count")
		}
		if len(runBench(b, "table8", nil).(*core.ModuleTable).Modules) != 60 {
			b.Fatal("DDR3 module count")
		}
	}
}

// benchFig10 is one reduced Figure 10 sweep.
var benchFig10 = core.Fig10Params{
	Mixes:        2,
	Cores:        4,
	TraceRecords: 1_000,
	WarmupInsts:  1_000,
	MeasureInsts: 8_000,
	HCSweep:      []int{100_000, 2_000, 256},
	Mechanisms: []core.MechanismID{
		core.MechPARA, core.MechIdeal, core.MechTWiCeIdeal,
		core.MechProHIT, core.MechMRLoc,
	},
}

func BenchmarkFigure10Mitigations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := runBench(b, "fig10", benchFig10).(*core.Figure10); len(f.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// benchAttack is one reduced attack-evaluation grid point.
var benchAttack = core.AttackParams{
	Patterns:     []attack.Kind{attack.DoubleSided},
	Mechanisms:   []core.MechanismID{core.MechNone, core.MechIdeal},
	HCSweep:      []int{512},
	BenignCores:  2,
	TraceRecords: 800,
	MemCycles:    150_000,
	Rows:         1024,
}

func BenchmarkAttackEval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ev := runBench(b, "attack", benchAttack).(*core.AttackEval); len(ev.Points) != 2 {
			b.Fatalf("points = %d", len(ev.Points))
		}
	}
}

// BenchmarkHammerObserverACT measures the per-activation cost of the
// attack subsystem's damage accounting — the hook on the simulator's
// hottest path.
func BenchmarkHammerObserverACT(b *testing.B) {
	chip, err := rowhammer.NewChip(rowhammer.ChipConfig{
		Name: "obs-bench", Banks: 16, Rows: 4096, RowBits: 1024,
		HCFirst: 1 << 40, Rate150k: 5e-5, // unreachable: pure accounting cost
		WorstPattern: rowhammer.RowStripe0, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	chip.WriteAll(rowhammer.RowStripe0)
	obs := rowhammer.NewHammerObserver(chip)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.OnACT(0, i&15, 100+(i&1), int64(i))
	}
}

func BenchmarkTable6Baseline(b *testing.B) {
	cfg := sim.Table6Config(1_000, 10_000)
	mix := trace.Mixes(1, 4, 1_000, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, mix)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalIPC() <= 0 {
			b.Fatal("zero IPC")
		}
	}
}

// --- Engine stress shapes ---------------------------------------------------
//
// RH_ENGINE selects the driver, so the suite runs under either engine;
// these two benchmarks are the sparse-trace shapes the event engine
// exists for — long idle stretches the cycle engine grinds through one
// cycle at a time.

// BenchmarkPacedAttackSparse is a duty-cycle paced attacker running alone
// (the trr-dodge cell shape): burst of serialized flush+loads, then most
// of each tREFI idle in gap instructions.
func BenchmarkPacedAttackSparse(b *testing.B) {
	cfg := sim.Table6Config(0, 1)
	cfg.Geo.Rows = 1024
	cfg.T = rowhammer.DDR4Timing(cfg.Geo.Rows)
	cfg.WarmupInsts = 0
	cfg.MeasureInsts = 1 << 40
	cfg.MaxCPUCycles = 400_000 * int64(cfg.CPUFreqMHz) / int64(cfg.MemFreqMHz)
	spec := attack.Spec{Kind: attack.DoubleSided, Records: 2_048, Seed: 5, DutyCycle: 0.25}
	tr, _, err := spec.Synthesize(cfg.Geo, attack.Target{Bank: 0, Row: 512})
	if err != nil {
		b.Fatal(err)
	}
	mix := trace.Mix{Name: "paced", Traces: []*trace.Trace{tr}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, mix)
		if err != nil {
			b.Fatal(err)
		}
		if res.Ctrl.Reads == 0 {
			b.Fatal("no attacker reads")
		}
	}
}

// BenchmarkSparseBenign is a single cache-resident core: almost every
// access hits the LLC and the memory system idles between refreshes.
func BenchmarkSparseBenign(b *testing.B) {
	cfg := sim.Table6Config(2_000, 40_000)
	p := trace.Profile{Name: "resident", MemFraction: 0.02, WorkingSetBytes: 1 << 20, Sequential: 0.9, WriteRatio: 0.2}
	mix := trace.Mix{Name: "sparse", Traces: []*trace.Trace{p.Generate(2_000, 9)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, mix)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalIPC() <= 0 {
			b.Fatal("zero IPC")
		}
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationFRFCFS runs the Table 6 controller (FR-FCFS, open row)
// under a dense four-core mix.
func BenchmarkAblationFRFCFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.Table6Config(1_000, 10_000)
		if _, err := sim.Run(cfg, trace.Mixes(1, 4, 1_000, 7)[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBetaSweep(b *testing.B, beta float64) {
	cfg := faultmodel.Config{
		Name: "ablate-beta", Banks: 1, Rows: 256, RowBits: 1024,
		HCFirst: 10_000, Beta: beta,
		WorstPattern: faultmodel.RowStripe0, Seed: 11,
	}
	for i := 0; i < b.N; i++ {
		chip, err := faultmodel.NewChip(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tester, err := rowhammer.NewTester(chip, 0)
		if err != nil {
			b.Fatal(err)
		}
		tester.WritePattern(chip.Config().WorstPattern)
		if _, err := tester.Sweep(100_000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBeta2(b *testing.B) { benchBetaSweep(b, 2) }
func BenchmarkAblationBeta4(b *testing.B) { benchBetaSweep(b, 4) }

// BenchmarkAblationLazySampling measures the lazy vulnerable-cell path:
// chip construction plus a single-row test, which instantiates only the
// touched rows.
func BenchmarkAblationLazySampling(b *testing.B) {
	cfg := faultmodel.Config{
		Name: "lazy", Banks: 1, Rows: 8192, RowBits: 8192,
		HCFirst: 10_000, Rate150k: 5e-5,
		WorstPattern: faultmodel.RowStripe0, Seed: 5,
	}
	for i := 0; i < b.N; i++ {
		chip, err := faultmodel.NewChip(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tester, err := rowhammer.NewTester(chip, 0)
		if err != nil {
			b.Fatal(err)
		}
		tester.WritePattern(chip.Config().WorstPattern)
		if _, err := tester.HammerDoubleSided(4096, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEagerSampling instantiates the full cell population
// up front (ForEachCell) before the same single-row test.
func BenchmarkAblationEagerSampling(b *testing.B) {
	cfg := faultmodel.Config{
		Name: "eager", Banks: 1, Rows: 8192, RowBits: 8192,
		HCFirst: 10_000, Rate150k: 5e-5,
		WorstPattern: faultmodel.RowStripe0, Seed: 5,
	}
	for i := 0; i < b.N; i++ {
		chip, err := faultmodel.NewChip(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		chip.ForEachCell(func(faultmodel.CellInfo) { n++ })
		tester, err := rowhammer.NewTester(chip, 0)
		if err != nil {
			b.Fatal(err)
		}
		tester.WritePattern(chip.Config().WorstPattern)
		if _, err := tester.HammerDoubleSided(4096, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core micro-benchmarks --------------------------------------------------

func BenchmarkChipFullSweep(b *testing.B) {
	chip, err := rowhammer.NewChip(rowhammer.ChipConfig{
		Name: "bench", Banks: 1, Rows: 512, RowBits: 2048,
		HCFirst: 10_000, Rate150k: 1e-4,
		WorstPattern: rowhammer.RowStripe0, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	tester, err := rowhammer.NewTester(chip, 0)
	if err != nil {
		b.Fatal(err)
	}
	tester.WritePattern(rowhammer.RowStripe0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tester.Sweep(100_000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControllerSaturated(b *testing.B) {
	geo := rowhammer.Table6Geometry()
	t := rowhammer.DDR4Timing(geo.Rows)
	for i := 0; i < b.N; i++ {
		ch, err := rowhammer.NewChannel(geo, t)
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := memctrl.New(memctrl.Table6Config(), ch, nil)
		if err != nil {
			b.Fatal(err)
		}
		mapper, err := rowhammer.NewAddressMapper(geo)
		if err != nil {
			b.Fatal(err)
		}
		addr := int64(0)
		for c := 0; c < 100_000; c++ {
			ctrl.EnqueueRead(0, mapper.LineAddress(addr), func() {})
			addr += 4096 // row-conflict heavy
			ctrl.Tick()
		}
	}
}

// benchStoreSpec is the tiny fig5 grid the CI service smoke submits
// twice; the store benchmarks time the two sides of that exchange.
func benchStoreSpec(b *testing.B) core.ExperimentSpec {
	b.Helper()
	spec, err := core.NewSpec("fig5", 7, core.CharParams{Scale: "tiny", Chips: 2, Iterations: 2})
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// BenchmarkStoreColdSubmit is a cache-miss submission: compute the grid
// and persist it atomically (the service's first-POST path).
func BenchmarkStoreColdSubmit(b *testing.B) {
	spec := benchStoreSpec(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r := store.Runner{Store: st}
		_, _, hit, err := r.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if hit {
			b.Fatal("cold submit reported a cache hit")
		}
	}
}

// BenchmarkStoreWarmHit is the second submission of the same spec: the
// result must come back from the store, verified, with no tasks run.
func BenchmarkStoreWarmHit(b *testing.B) {
	spec := benchStoreSpec(b)
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	r := store.Runner{Store: st}
	if _, _, _, err := r.Run(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, hit, err := r.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if !hit {
			b.Fatal("warm submit missed the store")
		}
	}
}
