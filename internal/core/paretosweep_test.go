package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/attack"
)

// tinyParetoParams is the reduced grid of the Pareto-sweep smoke tests
// (run at seed 7): 2 mechanisms × 2 schedulers × 2 HCfirst on a small
// chip, short window.
func tinyParetoParams() ParetoParams {
	return ParetoParams{
		Mechanisms:   []MechanismID{MechNone, MechIdeal},
		Schedulers:   Schedulers(),
		Patterns:     []attack.Kind{attack.DoubleSided},
		HCSweep:      []int{2_000, 512},
		BenignCores:  2,
		TraceRecords: 800,
		MemCycles:    150_000,
		Rows:         1024,
	}
}

// TestParetoSweepParallelismInvariant extends the engine's contract to
// the combined sweep: formatted output is byte-identical for any worker
// count (the CI smoke of the deterministic engine on this runner).
func TestParetoSweepParallelismInvariant(t *testing.T) {
	run := func(parallelism int) string {
		return runArtifact[*ParetoSweep](t, "pareto", 7, tinyParetoParams(), Exec{Parallelism: parallelism}).Format()
	}
	serial := run(1)
	if serial == "" {
		t.Fatal("empty output")
	}
	parallel := run(8)
	if serial != parallel {
		t.Errorf("output differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestParetoSweepShape pins the grid structure and the baseline
// invariant: the (None, FR-FCFS) benign-only cell is the baseline system
// itself, so its no-attack throughput is exactly 100%.
func TestParetoSweepShape(t *testing.T) {
	p := tinyParetoParams()
	s := runArtifact[*ParetoSweep](t, "pareto", 7, p, Exec{})
	want := len(p.Mechanisms) * len(p.Schedulers) * len(p.HCSweep)
	if len(s.Points) != want {
		t.Fatalf("points = %d, want %d", len(s.Points), want)
	}
	for _, hc := range p.HCSweep {
		if len(s.Frontier(hc)) == 0 {
			t.Errorf("no frontier point at HCfirst=%d", hc)
		}
	}
	pt, ok := s.PointFor(MechNone, SchedFRFCFS, 512)
	if !ok {
		t.Fatal("grid point (None, FR-FCFS, 512) missing")
	}
	if math.Abs(pt.NoAttackPerfPct-100) > 1e-9 {
		t.Errorf("baseline benign-only throughput = %.6f%%, want exactly 100", pt.NoAttackPerfPct)
	}
	if pt.EscapedFlips == 0 {
		t.Error("unprotected point survived the low-HCfirst attack")
	}
	ideal, ok := s.PointFor(MechIdeal, SchedFRFCFS, 512)
	if !ok || ideal.EscapedFlips != 0 {
		t.Errorf("Ideal mechanism leaked flips: %+v", ideal)
	}
	out := s.Format()
	for _, wantStr := range []string{"Pareto sweep", "FR-FCFS", "BLISS", "frontier", "HCfirst = 512"} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("format output missing %q:\n%s", wantStr, out)
		}
	}
}

// TestFairnessBeatsBlanketBackpressure is the PR's acceptance criterion:
// under a max-MLP attack, the BLISS scheduler plus per-thread BlockHammer
// keeps benign throughput strictly above the requester-blind blanket-
// backpressure baseline (BlockHammer-blanket on FR-FCFS, the PR 2
// behavior), with zero escaped flips on both sides — the attribution
// refactor buys performance without spending any security.
func TestFairnessBeatsBlanketBackpressure(t *testing.T) {
	p := ParetoParams{
		Mechanisms: []MechanismID{MechBlockHammerBlanket, MechBlockHammer},
		Schedulers: Schedulers(),
		// Decoy keeps queue pressure on non-blacklisted rows for the whole
		// window — the pattern where admission throttling alone cannot
		// save the benign cores and scheduling fairness has to.
		Patterns:     []attack.Kind{attack.Decoy},
		HCSweep:      []int{512},
		BenignCores:  2,
		TraceRecords: 800,
		MemCycles:    300_000,
		Rows:         1024,
	}
	s := runArtifact[*ParetoSweep](t, "pareto", 1, p, Exec{})
	blanket, ok := s.PointFor(MechBlockHammerBlanket, SchedFRFCFS, 512)
	if !ok {
		t.Fatal("blanket baseline point missing")
	}
	fair, ok := s.PointFor(MechBlockHammer, SchedBLISS, 512)
	if !ok {
		t.Fatal("per-thread + BLISS point missing")
	}
	if blanket.EscapedFlips != 0 || fair.EscapedFlips != 0 {
		t.Fatalf("escaped flips: blanket=%d fair=%d, want 0 and 0",
			blanket.EscapedFlips, fair.EscapedFlips)
	}
	if fair.BenignPerfPct <= blanket.BenignPerfPct {
		t.Errorf("per-thread BlockHammer + BLISS benign throughput %.1f%% not above the blanket FR-FCFS baseline %.1f%%",
			fair.BenignPerfPct, blanket.BenignPerfPct)
	}
}

func TestMarkFrontier(t *testing.T) {
	pts := []ParetoPoint{
		{Mechanism: "A", HCFirst: 512, EscapedFlips: 0, BenignPerfPct: 90},
		{Mechanism: "B", HCFirst: 512, EscapedFlips: 0, BenignPerfPct: 95},  // dominates A
		{Mechanism: "C", HCFirst: 512, EscapedFlips: 3, BenignPerfPct: 99},  // trade-off: on frontier
		{Mechanism: "D", HCFirst: 512, EscapedFlips: 5, BenignPerfPct: 98},  // dominated by C
		{Mechanism: "E", HCFirst: 2000, EscapedFlips: 9, BenignPerfPct: 10}, // alone in its group
	}
	markFrontier(pts)
	want := map[MechanismID]bool{"A": false, "B": true, "C": true, "D": false, "E": true}
	for _, p := range pts {
		if p.OnFrontier != want[p.Mechanism] {
			t.Errorf("%s: OnFrontier = %v, want %v", p.Mechanism, p.OnFrontier, want[p.Mechanism])
		}
	}
}

// TestAttackEvalECCReportsRawFlips exercises the on-die ECC path end to
// end: an unprotected LPDDR4-like chip must report at least as many raw
// flips as post-correction escapes, and the report gains the raw column.
func TestAttackEvalECCReportsRawFlips(t *testing.T) {
	ev := runAttackEval(t, AttackParams{
		Patterns:     []attack.Kind{attack.DoubleSided},
		Mechanisms:   []MechanismID{MechNone},
		HCSweep:      []int{512},
		BenignCores:  2,
		TraceRecords: 800,
		MemCycles:    250_000,
		Rows:         1024,
		ECC:          true,
	}, 0)
	pt := ev.Points[0]
	if pt.RawFlips == 0 {
		t.Fatal("no raw flips on an unprotected low-HCfirst chip")
	}
	// Post-correction escapes differ from the raw count: single raw flips
	// are corrected away, while multi-bit words can be miscorrected into
	// MORE observed flips than raw ones (the decoder flips an error-free
	// bit) — so the only wrong outcome is the counts being forced equal.
	if pt.EscapedFlips == pt.RawFlips {
		t.Errorf("escaped %d == raw %d: the ECC decode appears to be bypassed",
			pt.EscapedFlips, pt.RawFlips)
	}
	if !strings.Contains(ev.Format(), "raw") {
		t.Error("ECC report missing the raw-flip column")
	}
}
