package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pacedAttackRun simulates a lone attacker (no benign cores, no
// mitigation) with the given pacing and returns the per-REF timeline.
func pacedAttackRun(t *testing.T, duty, phase float64) []attack.REFWindow {
	t.Helper()
	sw, err := newSweep(sweepShape{memCycles: 400_000, rows: 1024}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sw.cfg
	chip, err := attackChip(cfg, 512, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	weak := chip.WeakestCell()
	spec := attack.Spec{Kind: attack.DoubleSided, Records: 2048, Seed: 3, DutyCycle: duty, Phase: phase}
	tr, aggressors, err := spec.Synthesize(cfg.Geo, attack.Target{Bank: weak.Bank, Row: weak.Row})
	if err != nil {
		t.Fatal(err)
	}
	obs := attack.NewObserver(chip)
	obs.WatchAggressors(aggressors)
	cfg.Observer = obs
	if _, err := sim.Run(cfg, trace.Mix{Name: "paced", Traces: []*trace.Trace{tr}}); err != nil {
		t.Fatal(err)
	}
	return obs.Timeline()
}

func timelineAggACTs(ws []attack.REFWindow) int64 {
	var n int64
	for _, w := range ws {
		n += w.AggressorACTs
	}
	return n
}

// TestDutyCycleAchievedFraction pins the idle-gap carry fix with
// Timeline evidence: the paced stream's aggressor activity, measured at
// the observer's per-REF granularity over many periods, must track the
// requested active fraction of the full-rate stream's activity instead
// of drifting away from it.
func TestDutyCycleAchievedFraction(t *testing.T) {
	full := pacedAttackRun(t, 0, 0)
	fullACTs := timelineAggACTs(full)
	if len(full) < 20 || fullACTs == 0 {
		t.Fatalf("full-rate run too small to measure: %d windows, %d aggressor ACTs", len(full), fullACTs)
	}
	for _, duty := range []float64{0.25, 0.5} {
		paced := pacedAttackRun(t, duty, 0)
		achieved := float64(timelineAggACTs(paced)) / float64(fullACTs)
		t.Logf("duty %.2f: achieved active fraction %.3f over %d REF windows", duty, achieved, len(paced))
		if math.Abs(achieved-duty) > 0.12 {
			t.Errorf("duty %.2f: achieved active fraction %.3f (|err| > 0.12) over %d REF windows",
				duty, achieved, len(paced))
		}
	}
}

// TestTRRDodgeValidation pins the new params' semantic checks at strict
// spec decode.
func TestTRRDodgeValidation(t *testing.T) {
	bad := []struct{ spec, want string }{
		{`{"name":"trr-dodge","params":{"duty_cycles":[1]}}`, "duty_cycles"},
		{`{"name":"trr-dodge","params":{"duty_cycles":[-0.25]}}`, "duty_cycles"},
		{`{"name":"trr-dodge","params":{"phases":[1.5]}}`, "phases"},
		{`{"name":"trr-dodge","params":{"sample_rates":[0]}}`, "sample_rates"},
		{`{"name":"trr-dodge","params":{"sample_rates":[1.1]}}`, "sample_rates"},
		{`{"name":"trr-dodge","params":{"table_sizes":[0]}}`, "table_sizes"},
		{`{"name":"trr-dodge","params":{"hc":-1}}`, "hc"},
		{`{"name":"trr-dodge","params":{"tabel_sizes":[4]}}`, "params"},
	}
	for _, b := range bad {
		if _, err := DecodeSpec([]byte(b.spec)); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: error = %v, want mention of %q", b.spec, err, b.want)
		}
	}
	if _, err := DecodeSpec([]byte(`{"name":"trr-dodge","params":{"duty_cycles":[0,0.25],"phases":[0.5],"sample_rates":[1],"table_sizes":[8]}}`)); err != nil {
		t.Errorf("valid trr-dodge spec rejected: %v", err)
	}
}

// TestTRRDodgeSpecRoundTrip pins the new params through the canonical
// encode/decode cycle.
func TestTRRDodgeSpecRoundTrip(t *testing.T) {
	spec, err := NewSpec("trr-dodge", 9, TRRDodgeParams{
		Patterns:   []attack.Kind{attack.DoubleSided, attack.ManySided},
		DutyCycles: []float64{0, 0.25},
		Phases:     []float64{0, 0.5},
		HCFirst:    512,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(enc2) {
		t.Errorf("encode/decode/encode not stable:\n%s\nvs\n%s", enc, enc2)
	}
}

// dodgeTestParams is the acceptance-scale grid: small geometry, one
// sampler configuration, full-rate baseline plus one paced point.
func dodgeTestParams() TRRDodgeParams {
	return TRRDodgeParams{
		Patterns:     []attack.Kind{attack.DoubleSided},
		DutyCycles:   []float64{0, 0.25},
		Phases:       []float64{0},
		SampleRates:  []float64{0.5},
		TableSizes:   []int{4},
		HCFirst:      256,
		TraceRecords: 800,
		MemCycles:    600_000,
		Rows:         1024,
	}
}

// TestTRRDodgeShowsDodge is the PR's acceptance criterion: on a grid
// where full-rate hammering is blocked by the sampler, a paced attack at
// DutyCycle < 1 escapes flips.
func TestTRRDodgeShowsDodge(t *testing.T) {
	dodge := runArtifact[*TRRDodge](t, "trr-dodge", 7, dodgeTestParams(), Exec{})
	fullRate, ok := dodge.PointFor(attack.DoubleSided, 0, 0, 0.5, 4)
	if !ok {
		t.Fatal("grid missing the full-rate baseline point")
	}
	paced, ok := dodge.PointFor(attack.DoubleSided, 0.25, 0, 0.5, 4)
	if !ok {
		t.Fatal("grid missing the paced point")
	}
	if fullRate.EscapedFlips != 0 {
		t.Errorf("full-rate baseline escaped %d flips; sampler should block continuous hammering", fullRate.EscapedFlips)
	}
	if fullRate.SamplerRefreshes == 0 {
		t.Error("sampler issued no victim refreshes against full-rate hammering")
	}
	if paced.EscapedFlips == 0 {
		t.Error("paced attack escaped no flips; the dodge did not happen")
	}
	if paced.SamplerSamples >= fullRate.SamplerSamples {
		t.Errorf("paced attack was sampled as much as full rate (%d >= %d); pacing did not avoid the window",
			paced.SamplerSamples, fullRate.SamplerSamples)
	}
	if len(dodge.Dodges()) == 0 {
		t.Error("Dodges() empty despite a paced escape over a blocked full-rate baseline")
	}
	if !strings.Contains(dodge.Format(), "Dodges") {
		t.Error("Format() does not surface the dodge verdict")
	}
}
