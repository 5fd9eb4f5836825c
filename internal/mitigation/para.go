package mitigation

import (
	"math"

	"repro/internal/stats"
)

// PARA (Probabilistic Adjacent Row Activation, Kim et al. [62]) refreshes
// a neighbour of every activated row with a low probability p. It is
// stateless, so it scales to arbitrary HCfirst values by raising p — at
// the cost of ever more refresh activations (Figure 10's most scalable
// but eventually slowest curve).
type PARA struct {
	base
	prob float64
	rng  *stats.RNG
}

// TargetBER is the acceptable probability of a RowHammer failure per hour
// of continuous hammering the paper adopts from consumer reliability
// targets (Section 6.1): 1e-15.
const TargetBER = 1e-15

// NewPARA derives p for the chip's HCfirst so that the bit error rate
// under continuous hammering stays below TargetBER per hour:
// each aggressor activation refreshes a given neighbour with probability
// p/2, so a victim survives HCfirst hammers unprotected with probability
// (1−p/2)^HCfirst; with 3600s/(HCfirst·tRC) attack windows per hour the
// per-window budget follows.
func NewPARA(p Params, tckPS int64) (*PARA, error) {
	b, err := newBase(p)
	if err != nil {
		return nil, err
	}
	m := &PARA{base: b, rng: stats.NewRNG(p.Seed ^ 0x9a7a)}
	trcSec := float64(p.TRC) * float64(tckPS) * 1e-12
	windowsPerHour := 3600 / (float64(p.HCFirst) * trcSec)
	if windowsPerHour < 1 {
		windowsPerHour = 1
	}
	perWindow := TargetBER / windowsPerHour
	// (1 − p/2)^HC ≤ perWindow  ⇒  p = 2·(1 − perWindow^(1/HC)).
	m.prob = 2 * (1 - math.Exp(math.Log(perWindow)/float64(p.HCFirst)))
	if m.prob > 1 {
		m.prob = 1
	}
	return m, nil
}

func (m *PARA) Name() string { return "PARA" }

func (m *PARA) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int {
	if !m.rng.Bernoulli(m.prob) {
		return nil
	}
	m.reset()
	ns, n := neighbors(row, m.p.Rows)
	switch n {
	case 1:
		m.emit(ns[0]) // an edge row has one neighbour: no side to draw
	case 2:
		// Refresh one adjacent row, chosen uniformly.
		m.emit(ns[m.rng.Intn(n)])
	}
	return m.out
}
