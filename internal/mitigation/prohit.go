package mitigation

import "repro/internal/stats"

// ProHIT (Son et al. [115]) tracks potential victim rows in a pair of
// probabilistically managed tables ("hot" and "cold") and refreshes the
// top hot entry during each REF command. The published design is tuned
// for HCfirst = 2000 and gives no scaling model (Section 6.1), so this
// implementation exposes the table parameters but reports itself viable
// only at that published operating point.
type ProHIT struct {
	base

	hotSize, coldSize int
	pInsert           float64 // pi: probability an unseen victim enters cold
	pEvict            float64 // pe: eviction position randomization
	pPromote          float64 // pt: promotion position randomization

	// Per-bank tables, most-significant entry first, allocated at their
	// full size so the in-place updates below never reallocate.
	hot, cold [][]int
	rng       *stats.RNG
}

// ProHITDefaults are our reconstruction of the DAC'17 configuration: four
// entries per table and sparse probabilistic insertion. The paper under
// reproduction states only that tables exist and are managed with
// probabilities pi/pe/pt; these values protect HCfirst = 2000 in our
// simulations while keeping the refresh overhead near zero.
var ProHITDefaults = struct {
	HotSize, ColdSize int
	PInsert           float64
	PEvict, PPromote  float64
	PublishedHCFirst  int
}{HotSize: 4, ColdSize: 4, PInsert: 1.0 / 16, PEvict: 0.3, PPromote: 0.3, PublishedHCFirst: 2000}

// NewProHIT builds the mechanism with the published defaults.
func NewProHIT(p Params) (*ProHIT, error) {
	b, err := newBase(p)
	if err != nil {
		return nil, err
	}
	m := &ProHIT{
		base:     b,
		hotSize:  ProHITDefaults.HotSize,
		coldSize: ProHITDefaults.ColdSize,
		pInsert:  ProHITDefaults.PInsert,
		pEvict:   ProHITDefaults.PEvict,
		pPromote: ProHITDefaults.PPromote,
		hot:      make([][]int, p.Banks),
		cold:     make([][]int, p.Banks),
		rng:      stats.NewRNG(p.Seed ^ 0x9406177),
	}
	for bank := range m.hot {
		m.hot[bank] = make([]int, 0, m.hotSize)
		m.cold[bank] = make([]int, 0, m.coldSize)
	}
	return m, nil
}

func (m *ProHIT) Name() string { return "ProHIT" }

func indexOf(tbl []int, row int) int {
	for i, r := range tbl {
		if r == row {
			return i
		}
	}
	return -1
}

func (m *ProHIT) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int {
	ns, n := neighbors(row, m.p.Rows)
	for _, victim := range ns[:n] {
		m.observe(bank, victim)
	}
	return nil
}

// observe runs the table state machine for one potential victim.
func (m *ProHIT) observe(bank, victim int) {
	hot, cold := m.hot[bank], m.cold[bank]
	if i := indexOf(hot, victim); i >= 0 {
		// Already hot: upgrade one priority position.
		if i > 0 {
			hot[i], hot[i-1] = hot[i-1], hot[i]
		}
		return
	}
	if i := indexOf(cold, victim); i >= 0 {
		// Promote from cold to hot: to the top with probability
		// (1−pt)+pt/H, otherwise to a uniformly chosen other entry.
		m.cold[bank] = append(cold[:i], cold[i+1:]...)
		pos := 0
		if !m.rng.Bernoulli((1 - m.pPromote) + m.pPromote/float64(m.hotSize)) {
			if len(hot) > 0 {
				pos = 1 + m.rng.Intn(len(hot))
			}
		}
		if len(hot) >= m.hotSize {
			// Hot table full: demote the lowest-priority entry to cold.
			demoted := hot[len(hot)-1]
			hot = hot[:len(hot)-1]
			m.insertCold(bank, demoted)
		}
		if pos > len(hot) {
			pos = len(hot)
		}
		hot = append(hot, 0)
		copy(hot[pos+1:], hot[pos:])
		hot[pos] = victim
		m.hot[bank] = hot
		return
	}
	// Unseen: insert into cold with probability pi.
	if m.rng.Bernoulli(m.pInsert) {
		m.insertCold(bank, victim)
	}
}

// insertCold appends a row to the cold table, evicting per the paper's
// probabilities when full: the least recently inserted entry with
// probability (1−pe)+pe/C, any other with pe/C.
func (m *ProHIT) insertCold(bank, victim int) {
	cold := m.cold[bank]
	if len(cold) >= m.coldSize {
		evict := len(cold) - 1
		if !m.rng.Bernoulli((1 - m.pEvict) + m.pEvict/float64(m.coldSize)) {
			evict = m.rng.Intn(len(cold))
		}
		cold = append(cold[:evict], cold[evict+1:]...)
	}
	// Most recently inserted entries sit at the front.
	cold = append(cold, 0)
	copy(cold[1:], cold)
	cold[0] = victim
	m.cold[bank] = cold
}

// OnAutoRefresh refreshes the top hot entry of the refreshed bank and
// removes it from the table, as the paper describes. The rest of the
// bank's tracking state is kept, including entries for rows the REF's
// rotation has just refreshed.
func (m *ProHIT) OnAutoRefresh(bank, rowStart, rowCount int, cycle int64) []int {
	hot := m.hot[bank]
	if len(hot) == 0 {
		return nil
	}
	m.reset()
	m.emit(hot[0])
	m.hot[bank] = append(hot[:0], hot[1:]...)
	return m.out
}

// Viable only at the published HCfirst = 2000 operating point.
func (m *ProHIT) Viable() bool { return m.p.HCFirst == ProHITDefaults.PublishedHCFirst }
