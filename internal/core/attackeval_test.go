package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/attack"
)

// tinyAttackParams is the reduced grid used across the attack-eval
// tests: one low-HCfirst point on a small chip, short window.
func tinyAttackParams() AttackParams {
	return AttackParams{
		Patterns:     []attack.Kind{attack.DoubleSided},
		Mechanisms:   []MechanismID{MechNone, MechIdeal},
		HCSweep:      []int{512},
		BenignCores:  2,
		TraceRecords: 800,
		MemCycles:    200_000,
		Rows:         1024,
	}
}

// runAttackEval runs the attack experiment at seed 7.
func runAttackEval(t *testing.T, p AttackParams, parallelism int) *AttackEval {
	t.Helper()
	return runArtifact[*AttackEval](t, "attack", 7, p, Exec{Parallelism: parallelism})
}

// TestAttackEvalSecurityLoop is the subsystem's reason to exist: with no
// mitigation, a low-HCfirst chip loses bits to a double-sided hammer
// within the window; the Ideal mechanism on the same chip and stream
// loses none. If both held or both broke, the command stream and the
// fault model would not actually be coupled.
func TestAttackEvalSecurityLoop(t *testing.T) {
	ev := runAttackEval(t, tinyAttackParams(), 0)
	none := ev.PointsFor(MechNone)
	ideal := ev.PointsFor(MechIdeal)
	if len(none) != 1 || len(ideal) != 1 {
		t.Fatalf("points: none=%d ideal=%d", len(none), len(ideal))
	}
	if none[0].EscapedFlips == 0 {
		t.Errorf("unprotected chip survived the attack: %+v", none[0])
	}
	if none[0].TimeToFirstFlipMS < 0 {
		t.Error("no time-to-first-flip despite escaped flips")
	}
	if ideal[0].EscapedFlips != 0 {
		t.Errorf("Ideal mechanism leaked %d flips: %+v", ideal[0].EscapedFlips, ideal[0])
	}
	if ideal[0].TimeToFirstFlipMS >= 0 {
		t.Error("Ideal reports a first-flip time with zero flips")
	}
	// The attacker must have achieved a meaningful ACT rate in both runs.
	for _, p := range ev.Points {
		if p.AggressorACTs == 0 || p.AggACTsPerSec <= 0 {
			t.Errorf("%s: no aggressor activity measured: %+v", p.Mechanism, p)
		}
		if p.BenignPerfPct <= 0 || p.BenignPerfPct > 120 {
			t.Errorf("%s: implausible benign perf %.1f%%", p.Mechanism, p.BenignPerfPct)
		}
	}
}

// TestAttackEvalBlockHammerThrottles pins the throttling path end to end:
// BlockHammer must hold the same point the unprotected baseline loses,
// with zero mitigation refreshes and a visibly reduced aggressor rate.
func TestAttackEvalBlockHammerThrottles(t *testing.T) {
	p := tinyAttackParams()
	p.Mechanisms = []MechanismID{MechNone, MechBlockHammer}
	ev := runAttackEval(t, p, 0)
	none := ev.PointsFor(MechNone)[0]
	bh := ev.PointsFor(MechBlockHammer)[0]
	if bh.EscapedFlips != 0 {
		t.Errorf("BlockHammer leaked %d flips", bh.EscapedFlips)
	}
	if bh.OverheadPct != 0 {
		t.Errorf("BlockHammer issued refreshes: overhead %.3f%%", bh.OverheadPct)
	}
	if bh.ThrottleStallCycles == 0 {
		t.Error("BlockHammer never throttled the attacker")
	}
	if bh.AggACTsPerSec >= none.AggACTsPerSec/2 {
		t.Errorf("throttled aggressor rate %.0f not well below baseline %.0f",
			bh.AggACTsPerSec, none.AggACTsPerSec)
	}
}

// TestAttackEvalParallelismInvariant extends the engine's contract to the
// new runner: formatted output is byte-identical for any worker count.
func TestAttackEvalParallelismInvariant(t *testing.T) {
	run := func(parallelism int) string {
		p := tinyAttackParams()
		p.Patterns = []attack.Kind{attack.DoubleSided, attack.Scattered}
		return runAttackEval(t, p, parallelism).Format()
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

// TestAttackEvalFormat sanity-checks the report rendering.
func TestAttackEvalFormat(t *testing.T) {
	ev := runAttackEval(t, tinyAttackParams(), 0)
	out := ev.Format()
	for _, want := range []string{"Attack evaluation", "double-sided", "None", "Ideal", "t-first-flip"} {
		if !strings.Contains(out, want) {
			t.Errorf("format output missing %q:\n%s", want, out)
		}
	}
}

// TestSweepsRunAtMinRows runs the three adversarial sweeps at the
// smallest rows override DecodeSpec accepts, so the decode bound and the
// bound the runs enforce (the attack synthesizer's and the fault model's)
// cannot drift apart.
func TestSweepsRunAtMinRows(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params any
	}{
		{"attack", AttackParams{Patterns: attack.Kinds(), Mechanisms: []MechanismID{MechPARA},
			HCSweep: []int{512}, BenignCores: 1, TraceRecords: 200, MemCycles: 5_000, Rows: attack.MinRows}},
		{"pareto", ParetoParams{Mechanisms: []MechanismID{MechBlockHammer}, Schedulers: []SchedulerID{SchedBLISS},
			Patterns: []attack.Kind{attack.Decoy}, HCSweep: []int{512}, BenignCores: 1, TraceRecords: 200,
			MemCycles: 5_000, Rows: attack.MinRows}},
		{"trr-dodge", TRRDodgeParams{Patterns: []attack.Kind{attack.ManySided}, DutyCycles: []float64{0.5},
			Phases: []float64{0.5}, MemCycles: 5_000, Rows: attack.MinRows}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := NewSpec(tc.name, 1, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunContext(context.Background(), spec, Exec{}); err != nil {
				t.Fatalf("rows %d accepted at decode but the run failed: %v", attack.MinRows, err)
			}
		})
	}
}
