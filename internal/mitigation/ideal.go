package mitigation

// Ideal is the paper's ideal refresh-based mechanism: it tracks every
// activation to every row exactly and refreshes a victim only immediately
// before it could experience its first bit flip — the minimum possible
// number of additional refreshes for a refresh-based defense
// (Section 6.1). It bounds what any counter- or probability-based
// mechanism could hope to achieve.
type Ideal struct {
	base

	// hammers[bank][row] counts accumulated hammers (a single adjacent
	// activation contributes 0.5, so a double-sided pair contributes 1).
	hammers [][]float32
	trigger float32
}

// NewIdeal builds the oracle tracker.
func NewIdeal(p Params) (*Ideal, error) {
	b, err := newBase(p)
	if err != nil {
		return nil, err
	}
	m := &Ideal{base: b}
	m.hammers = make([][]float32, p.Banks)
	for bank := range m.hammers {
		m.hammers[bank] = make([]float32, p.Rows)
	}
	m.trigger = float32(p.HCFirst) - 1
	if m.trigger < 1 {
		m.trigger = 1
	}
	return m, nil
}

func (m *Ideal) Name() string { return "Ideal" }

func (m *Ideal) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int {
	rows := m.hammers[bank]
	// Activating a row restores its own charge.
	rows[row] = 0
	m.reset()
	ns, n := neighbors(row, m.p.Rows)
	for _, victim := range ns[:n] {
		rows[victim] += 0.5
		if rows[victim] >= m.trigger {
			m.emit(victim)
			rows[victim] = 0
		}
	}
	return m.out
}

func (m *Ideal) OnAutoRefresh(bank, rowStart, rowCount int, cycle int64) []int {
	rows := m.hammers[bank]
	for r := rowStart; r < rowStart+rowCount && r < len(rows); r++ {
		rows[r] = 0
	}
	return nil
}
