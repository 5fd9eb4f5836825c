package mitigation

import (
	"fmt"

	"repro/internal/stats"
)

// TRR models the in-DRAM Target Row Refresh samplers that shipped with
// DDR4/LPDDR4 parts once HCfirst dropped below what blanket refresh could
// cover: a small per-bank table of suspected aggressor rows, fed by
// probabilistically sampling the activation stream, whose over-threshold
// entries get their neighbours refreshed piggybacked on the next REF
// command.
//
// The model keeps the two structural weaknesses the RowHammer literature
// documents for real samplers, because they are the point of the
// trr-dodge study:
//
//   - The sampler has a finite observation budget. It watches only the
//     WindowFrac tail of each refresh interval (the activations "in
//     proximity of" the upcoming REF), and samples those at SampleRate.
//     An attacker who paces its bursts to the head of each interval
//     (attack.Spec.DutyCycle/Phase) is never observed.
//   - The table is tiny. When it is full, a new sample evicts the
//     lowest-count entry — so TRRespass-style many-sided rotations can
//     thrash the table faster than any entry can reach the threshold.
//
// Aggressor counters are cleared every tREFW: the auto-refresh rotation
// has restored every row by then, so older activity no longer threatens.
// TRR issues no refreshes beyond the piggybacked victim rows and never
// changes the REF pace.
type TRR struct {
	base
	cfg TRRConfig

	// tables holds per-bank sampler entries, insertion order preserved.
	tables [][]trrEntry
	rng    *stats.RNG

	// epoch is the tREFW clearing epoch.
	epoch epoch

	samples         int64
	victimRefreshes int64
}

// trrEntry is one sampler table slot: a suspected aggressor row, how
// often the sampler has caught it activating, and when it was last
// caught (the eviction tie-break).
type trrEntry struct {
	row   int
	count int
	last  int64
}

// TRRConfig parameterizes the sampler. The zero value selects the
// defaults; out-of-domain values are construction errors.
type TRRConfig struct {
	// SampleRate is the probability an in-window activation is sampled
	// into the table, in (0,1] (default 0.5).
	SampleRate float64
	// TableSize is the number of tracked aggressor entries per bank
	// (default 4 — the "small sampler table" that makes wide rotations
	// effective).
	TableSize int
	// Threshold is the sampled count at which a REF refreshes the entry's
	// neighbours (0 derives it from the timing so a full-rate double-sided
	// aggressor crosses it within one observation window).
	Threshold int
	// WindowFrac is the fraction of each refresh interval, immediately
	// before the REF, in which the sampler observes activations, in (0,1]
	// (default 0.25).
	WindowFrac float64
}

// TRRDefaults are the default sampler parameters.
var TRRDefaults = TRRConfig{SampleRate: 0.5, TableSize: 4, WindowFrac: 0.25}

// NewTRR builds the sampler with the default configuration.
func NewTRR(p Params) (*TRR, error) { return NewTRRWithConfig(p, TRRConfig{}) }

// NewTRRWithConfig builds the sampler with explicit parameters; zero
// fields keep the defaults.
func NewTRRWithConfig(p Params, cfg TRRConfig) (*TRR, error) {
	b, err := newBase(p)
	if err != nil {
		return nil, err
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = TRRDefaults.SampleRate
	}
	if cfg.SampleRate < 0 || cfg.SampleRate > 1 {
		return nil, fmt.Errorf("mitigation: TRR sample rate %g outside (0,1]", cfg.SampleRate)
	}
	if cfg.TableSize == 0 {
		cfg.TableSize = TRRDefaults.TableSize
	}
	if cfg.TableSize < 1 {
		return nil, fmt.Errorf("mitigation: TRR table size %d must be positive", cfg.TableSize)
	}
	if cfg.WindowFrac == 0 {
		cfg.WindowFrac = TRRDefaults.WindowFrac
	}
	if cfg.WindowFrac < 0 || cfg.WindowFrac > 1 {
		return nil, fmt.Errorf("mitigation: TRR window fraction %g outside (0,1]", cfg.WindowFrac)
	}
	if cfg.Threshold < 0 {
		return nil, fmt.Errorf("mitigation: TRR threshold %d must not be negative", cfg.Threshold)
	}
	if cfg.Threshold == 0 {
		// A full-rate aggressor activates about once per tRC; the sampler
		// sees WindowFrac of those and keeps SampleRate of what it sees.
		// A quarter of that expected per-window count catches continuous
		// hammering on the first REF while staying above benign noise.
		perWindow := cfg.SampleRate * cfg.WindowFrac * float64(p.TREFI) / float64(p.TRC)
		cfg.Threshold = int(perWindow / 4)
		if cfg.Threshold < 2 {
			cfg.Threshold = 2
		}
	}
	return &TRR{
		base:   b,
		cfg:    cfg,
		tables: make([][]trrEntry, p.Banks),
		rng:    stats.NewRNG(p.Seed ^ 0x7225a3),
		epoch:  epoch{length: p.TREFW},
	}, nil
}

func (m *TRR) Name() string { return "TRR" }

// rotate clears every bank's counters at tREFW boundaries: the rotation
// has refreshed all rows by then, so accumulated suspicion is stale.
func (m *TRR) rotate(cycle int64) {
	for m.epoch.next(cycle) {
		for b := range m.tables {
			m.tables[b] = m.tables[b][:0]
		}
	}
}

// inWindow reports whether a cycle falls inside the sampler's observation
// window: the WindowFrac tail of the refresh interval, just before the
// next REF is due.
func (m *TRR) inWindow(cycle int64) bool {
	pos := cycle % m.p.TREFI
	return float64(pos) >= float64(m.p.TREFI)*(1-m.cfg.WindowFrac)
}

// OnActivate samples in-window activations into the bank's table.
// Mitigation-triggered activations are the sampler's own victim refreshes;
// it knows them and does not sample itself.
func (m *TRR) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int {
	m.rotate(cycle)
	if fromMitigation || bank < 0 || bank >= m.p.Banks {
		return nil
	}
	if !m.inWindow(cycle) || !m.rng.Bernoulli(m.cfg.SampleRate) {
		return nil
	}
	m.samples++
	tbl := m.tables[bank]
	for i := range tbl {
		if tbl[i].row == row {
			tbl[i].count++
			tbl[i].last = cycle
			return nil
		}
	}
	if len(tbl) < m.cfg.TableSize {
		m.tables[bank] = append(tbl, trrEntry{row: row, count: 1, last: cycle})
		return nil
	}
	// Full table: the new sample replaces the lowest-count entry, ties
	// broken by least-recently-sampled. This is the classic sampler
	// eviction a wide aggressor rotation thrashes: every rotation member
	// arrives at count 1 and evicts another count-1 member before any
	// entry can accumulate.
	min := 0
	for i := 1; i < len(tbl); i++ {
		if tbl[i].count < tbl[min].count ||
			(tbl[i].count == tbl[min].count && tbl[i].last < tbl[min].last) {
			min = i
		}
	}
	tbl[min] = trrEntry{row: row, count: 1, last: cycle}
	return nil
}

// OnAutoRefresh piggybacks victim refreshes on the REF: every entry of
// the refreshed bank at or above the threshold gets its neighbours
// refreshed and leaves the table.
func (m *TRR) OnAutoRefresh(bank, rowStart, rowCount int, cycle int64) []int {
	m.rotate(cycle)
	if bank < 0 || bank >= m.p.Banks {
		return nil
	}
	m.reset()
	kept := m.tables[bank][:0]
	for _, e := range m.tables[bank] {
		if e.count >= m.cfg.Threshold {
			ns, n := neighbors(e.row, m.p.Rows)
			m.emit(ns[:n]...)
			m.victimRefreshes += int64(n)
			continue
		}
		kept = append(kept, e)
	}
	m.tables[bank] = kept
	return m.out
}

// Samples returns how many activations the sampler has observed.
func (m *TRR) Samples() int64 { return m.samples }

// VictimRefreshes returns how many neighbour refreshes REFs have issued.
func (m *TRR) VictimRefreshes() int64 { return m.victimRefreshes }
