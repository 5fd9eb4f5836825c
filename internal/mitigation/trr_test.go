package mitigation

import "testing"

// trrParams is a small deterministic system for sampler tests: tREFI
// 1000 with a 25% observation window means cycles 750..999 of each
// interval are observed; tREFW 8000 bounds the counter epoch.
func trrParams() Params {
	return Params{
		HCFirst: 1000,
		Rows:    1024,
		Banks:   4,
		TRC:     56,
		TREFI:   1000,
		TREFW:   8000,
		Seed:    1,
	}
}

// detTRR builds a sampler with SampleRate 1 (deterministic sampling) and
// the given table size and threshold.
func detTRR(t *testing.T, table, threshold int) *TRR {
	t.Helper()
	m, err := NewTRRWithConfig(trrParams(), TRRConfig{SampleRate: 1, TableSize: table, Threshold: threshold, WindowFrac: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTRRConfigValidation(t *testing.T) {
	p := trrParams()
	for _, bad := range []TRRConfig{
		{SampleRate: -0.5},
		{SampleRate: 1.5},
		{TableSize: -1},
		{Threshold: -2},
		{WindowFrac: -0.1},
		{WindowFrac: 1.2},
	} {
		if _, err := NewTRRWithConfig(p, bad); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	m, err := NewTRR(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.cfg
	if cfg.SampleRate != TRRDefaults.SampleRate || cfg.TableSize != TRRDefaults.TableSize ||
		cfg.WindowFrac != TRRDefaults.WindowFrac {
		t.Errorf("defaults not filled: %+v", cfg)
	}
	if cfg.Threshold < 2 {
		t.Errorf("derived threshold %d below floor", cfg.Threshold)
	}
}

// TestTRRBlocksInWindowHammering is the block-at-full-rate half of the
// sampler's contract: activations inside the observation window cross
// the threshold and the next REF refreshes the aggressor's neighbours,
// after which the entry has been served and leaves the table.
func TestTRRBlocksInWindowHammering(t *testing.T) {
	m := detTRR(t, 4, 2)
	// Cycles 750 and 751 are inside the 25% window before the REF at 1000.
	m.OnActivate(0, 100, 750, false)
	m.OnActivate(0, 100, 751, false)
	if m.Samples() != 2 {
		t.Fatalf("samples = %d, want 2", m.Samples())
	}
	got := m.OnAutoRefresh(0, 0, 64, 1000)
	if len(got) != 2 || got[0] != 99 || got[1] != 101 {
		t.Fatalf("REF refreshed %v, want [99 101]", got)
	}
	if m.VictimRefreshes() != 2 {
		t.Errorf("victim refreshes = %d, want 2", m.VictimRefreshes())
	}
	// Served entry left the table: the next REF issues nothing.
	if got := m.OnAutoRefresh(0, 0, 64, 2000); len(got) != 0 {
		t.Errorf("second REF refreshed %v, want nothing", got)
	}
	// A below-threshold row stays tracked but unserved.
	m.OnActivate(1, 200, 2750, false)
	if got := m.OnAutoRefresh(1, 0, 64, 3000); len(got) != 0 {
		t.Errorf("below-threshold entry served: %v", got)
	}
}

// TestTRRDodgedByOutOfWindowHammering is the dodge half: the same
// hammering placed outside the observation window is never sampled, so
// the sampler stays blind and REFs refresh nothing.
func TestTRRDodgedByOutOfWindowHammering(t *testing.T) {
	m := detTRR(t, 4, 2)
	for cycle := int64(0); cycle < 700; cycle += 7 {
		m.OnActivate(0, 100, cycle, false) // head of the interval: unobserved
	}
	if m.Samples() != 0 {
		t.Fatalf("out-of-window ACTs sampled %d times", m.Samples())
	}
	if got := m.OnAutoRefresh(0, 0, 64, 1000); len(got) != 0 {
		t.Errorf("blind sampler still refreshed %v", got)
	}
	// Mitigation-triggered ACTs are the sampler's own refreshes: never
	// sampled even in-window.
	m.OnActivate(0, 300, 800, true)
	if m.Samples() != 0 {
		t.Error("sampler sampled its own mitigation refresh")
	}
}

// TestTRRTableEviction pins the classic sampler weakness: a full table
// evicts its lowest-count (oldest on ties) entry for the new sample, so
// low-count rows are thrashed while established aggressors survive.
func TestTRRTableEviction(t *testing.T) {
	m := detTRR(t, 2, 3)
	in := int64(800) // inside the window before REF@1000
	m.OnActivate(0, 100, in, false)
	m.OnActivate(0, 100, in+1, false)
	m.OnActivate(0, 100, in+2, false) // row 100: count 3
	m.OnActivate(0, 200, in+3, false) // row 200: count 1
	m.OnActivate(0, 300, in+4, false) // full table: evicts row 200 (min count) → 300: count 1
	m.OnActivate(0, 300, in+5, false) // row 300: count 2
	m.OnActivate(0, 200, in+6, false) // full table: evicts row 300 (count 2 < 100's 3) → 200: count 1
	// Only row 100 (count 3) is at the threshold.
	got := m.OnAutoRefresh(0, 0, 64, 1000)
	if len(got) != 2 || got[0] != 99 || got[1] != 101 {
		t.Fatalf("REF refreshed %v, want row 100's neighbours [99 101]", got)
	}
}

// TestTRRWideRotationThrashesTable pins the TRRespass effect end to end
// at the unit level: rotating more aggressors than the table holds keeps
// evicting count-1 entries, so no row ever reaches the threshold.
func TestTRRWideRotationThrashesTable(t *testing.T) {
	m := detTRR(t, 2, 2)
	rows := []int{100, 102, 104, 106, 108, 110}
	cycle := int64(750)
	for pass := 0; pass < 40; pass++ {
		for _, r := range rows {
			m.OnActivate(0, r, cycle, false)
			cycle++
		}
	}
	if got := m.OnAutoRefresh(0, 0, 64, 1000); len(got) != 0 {
		t.Errorf("thrashed table still crossed the threshold: %v", got)
	}
}

// TestTRRClearsCountersPerTREFW pins the per-tREFW reset: suspicion
// accumulated in one refresh window does not survive into the next.
func TestTRRClearsCountersPerTREFW(t *testing.T) {
	m := detTRR(t, 4, 3)
	m.OnActivate(0, 100, 800, false)
	m.OnActivate(0, 100, 801, false) // count 2, below threshold 3
	// Next tREFW epoch (8000 cycles later): counters must be gone, so one
	// more in-window ACT cannot cross the threshold it would have crossed
	// with the stale count.
	m.OnActivate(0, 100, 8800, false)
	if got := m.OnAutoRefresh(0, 0, 64, 9000); len(got) != 0 {
		t.Errorf("stale counters crossed the threshold after the tREFW clear: %v", got)
	}
	if m.Samples() != 3 {
		t.Errorf("samples = %d, want 3 (clearing resets counters, not the sample tally)", m.Samples())
	}
}
