package mitigation

// TWiCe (Lee et al. [76]) keeps a per-bank table of potential victims
// with two counters each — activations and lifetime — refreshing a victim
// when its activation count crosses tRH = HCfirst/4 and pruning
// slow-hammered entries during refresh commands.
//
// The real design cannot support tRH below the number of refresh
// intervals per window (≈8k, hence HCfirst ≥ 32k, Section 6.1): pruning
// thresholds would need fractional (floating-point) rates and the table
// would grow unboundedly. TWiCe-ideal assumes those engineering issues
// away and is what the paper evaluates below 32k.
type TWiCe struct {
	base
	ideal bool

	tRH     float64 // refresh threshold in activations
	pruneTh float64 // activations-per-lifetime pruning rate

	tables []map[int]twiceEntry // per bank
}

type twiceEntry struct {
	acts float64
	life float64
}

// NewTWiCe builds the mechanism; ideal selects TWiCe-ideal, which is
// evaluated below the real design's HCfirst ≥ 32k bound.
func NewTWiCe(p Params, ideal bool) (*TWiCe, error) {
	b, err := newBase(p)
	if err != nil {
		return nil, err
	}
	m := &TWiCe{base: b, ideal: ideal}
	m.tRH = float64(p.HCFirst) / 4
	if m.tRH < 1 {
		m.tRH = 1
	}
	m.pruneTh = m.tRH / p.refsPerWindow()
	m.tables = make([]map[int]twiceEntry, p.Banks)
	for i := range m.tables {
		m.tables[i] = make(map[int]twiceEntry)
	}
	return m, nil
}

func (m *TWiCe) Name() string {
	if m.ideal {
		return "TWiCe-ideal"
	}
	return "TWiCe"
}

func (m *TWiCe) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int {
	m.reset()
	tbl := m.tables[bank]
	ns, n := neighbors(row, m.p.Rows)
	for _, victim := range ns[:n] {
		// Each adjacent activation contributes half a (double-sided)
		// hammer to the victim.
		e := tbl[victim]
		e.acts += 0.5
		if e.acts >= m.tRH {
			m.emit(victim)
			delete(tbl, victim)
			continue
		}
		tbl[victim] = e
	}
	return m.out
}

// OnAutoRefresh performs the pruning stage (hidden behind REF latency in
// the real design) and drops entries for rows the rotation refreshed.
func (m *TWiCe) OnAutoRefresh(bank, rowStart, rowCount int, cycle int64) []int {
	tbl := m.tables[bank]
	//rhlint:allow mapiter(independent per-key prune-or-age; order-free)
	for row, e := range tbl {
		if row >= rowStart && row < rowStart+rowCount {
			delete(tbl, row)
			continue
		}
		e.life++
		if e.acts < m.pruneTh*e.life {
			delete(tbl, row)
			continue
		}
		tbl[row] = e
	}
	return nil
}

// Viable: the real design requires tRH ≥ refreshes-per-window (within a
// small tolerance — the paper rounds the ≈8.2k refresh intervals of
// DDR4 to "∼8k" and draws the line at HCfirst = 32k); the ideal variant
// has no bound.
func (m *TWiCe) Viable() bool {
	if m.ideal {
		return true
	}
	return m.tRH >= 0.95*m.p.refsPerWindow()
}
