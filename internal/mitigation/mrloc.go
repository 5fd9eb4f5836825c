package mitigation

import "repro/internal/stats"

// MRLoc (You et al. [133]) queues victim-row addresses on every
// activation and refreshes a re-inserted victim with a probability that
// grows with its re-insertion locality: victims seen again after a short
// interval are likelier to be refreshed. The published parameters target
// HCfirst = 2000; like the paper, we evaluate it only there.
type MRLoc struct {
	base

	queueSize int
	pMax      float64

	// Per-bank FIFO of recently observed victims (most recent last) and
	// a running insertion counter to compute re-insertion distance.
	queue  [][]mrlocEntry
	serial []int64
	rng    *stats.RNG
}

type mrlocEntry struct {
	row    int
	serial int64
}

// MRLocDefaults reconstructs the DAC'19 tuning: a 512-entry victim queue
// and a maximum refresh probability chosen so HCfirst = 2000 attacks are
// intercepted while benign locality costs almost nothing.
var MRLocDefaults = struct {
	QueueSize        int
	PMax             float64
	PublishedHCFirst int
}{QueueSize: 512, PMax: 0.05, PublishedHCFirst: 2000}

// NewMRLoc builds the mechanism with published defaults.
func NewMRLoc(p Params) (*MRLoc, error) {
	b, err := newBase(p)
	if err != nil {
		return nil, err
	}
	return &MRLoc{
		base:      b,
		queueSize: MRLocDefaults.QueueSize,
		pMax:      MRLocDefaults.PMax,
		queue:     make([][]mrlocEntry, p.Banks),
		serial:    make([]int64, p.Banks),
		rng:       stats.NewRNG(p.Seed ^ 0x3a10c),
	}, nil
}

func (m *MRLoc) Name() string { return "MRLoc" }

func (m *MRLoc) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int {
	m.reset()
	ns, n := neighbors(row, m.p.Rows)
	for _, victim := range ns[:n] {
		m.serial[bank]++
		q := m.queue[bank]
		// Find the victim's previous insertion, newest first.
		prev := -1
		for i := len(q) - 1; i >= 0; i-- {
			if q[i].row == victim {
				prev = i
				break
			}
		}
		if prev >= 0 {
			dist := m.serial[bank] - q[prev].serial
			if dist < int64(m.queueSize) {
				// Locality-weighted probability: re-insertions after a
				// short gap get close to pMax, distant ones near zero.
				pr := m.pMax * (1 - float64(dist)/float64(m.queueSize))
				if m.rng.Bernoulli(pr) {
					m.emit(victim)
				}
			}
			q = append(q[:prev], q[prev+1:]...)
		}
		q = append(q, mrlocEntry{row: victim, serial: m.serial[bank]})
		if len(q) > m.queueSize {
			q = q[1:]
		}
		m.queue[bank] = q
	}
	return m.out
}

// Viable only at the published HCfirst = 2000 operating point.
func (m *MRLoc) Viable() bool { return m.p.HCFirst == MRLocDefaults.PublishedHCFirst }
