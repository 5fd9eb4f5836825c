package mitigation

// IncreasedRefresh is the original RowHammer paper's brute-force defense:
// raise the refresh rate until no row can be activated HCfirst times
// within one refresh window. Following Section 6.1, the scaled window is
// tREFW' = HCfirst × tRC, so the multiplier over the nominal window is
// tREFW / (HCfirst × tRC). The mechanism issues no targeted refreshes; it
// only scales REF frequency.
//
// The design cannot scale below HCfirst ≈ 32k: the window becomes too
// short to fit the per-window refresh commands themselves.
type IncreasedRefresh struct {
	base
	multiplier float64
}

// NewIncreasedRefresh builds the mechanism for the given parameters.
func NewIncreasedRefresh(p Params) (*IncreasedRefresh, error) {
	b, err := newBase(p)
	if err != nil {
		return nil, err
	}
	m := &IncreasedRefresh{base: b}
	scaledWindow := float64(p.HCFirst) * float64(p.TRC)
	m.multiplier = float64(p.TREFW) / scaledWindow
	if m.multiplier < 1 {
		m.multiplier = 1 // chips weaker than the nominal window need nothing
	}
	return m, nil
}

func (m *IncreasedRefresh) Name() string { return "IncreasedRefresh" }

func (m *IncreasedRefresh) RefreshMultiplier() float64 { return m.multiplier }

// Viable reports whether the scaled refresh window is long enough to
// scale refresh this far (Section 6.1's HCfirst ≥ 32k bound).
func (m *IncreasedRefresh) Viable() bool { return m.p.HCFirst >= 32_000 }
