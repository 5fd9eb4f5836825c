package mitigation

import "repro/internal/stats"

// BlockHammer (Yağlıkçı et al., HPCA 2021) is a throttling-based defense:
// instead of refreshing victims it rate-limits aggressors. Per-bank dual
// counting Bloom filters (count-min sketches here) estimate every row's
// activation count over a rolling pair of epochs; once a row's estimate
// crosses the blacklist threshold NBL, further activations to it are
// delayed so that no row can exceed the safe activation budget within a
// refresh window — so no victim can accumulate HCfirst hammers between
// two of its own refreshes. Unlike the paper's six mechanisms it issues
// zero extra refreshes; its cost is demand-ACT latency on (truly or
// falsely) blacklisted rows.
//
// Three RowBlocker-Req admission policies are implemented. The default
// proportional policy follows BlockHammer's full design: each source
// thread carries a RowHammer likelihood index (RHLI) — its activation
// count on hot rows relative to the blacklist threshold — and a
// blacklisted-row request is delayed in proportion to its source's RHLI
// (RHLI × the post-blacklist ACT spacing, capped at an epoch), so a
// borderline source pays a brief pause while a confirmed hammerer is
// rate-limited hard; a zero-RHLI thread that merely touches a (truly or
// falsely) blacklisted row is never collateral. The binary policy
// (NewBlockHammerBinary, the previous default) rejects blacklisted-row
// requests outright once the source's RHLI reaches 1 — the comparison
// baseline for the proportional design. The legacy blanket policy
// (NewBlockHammerBlanket, the pre-requester-ID behavior) rejects any
// blacklisted-row read once the queue is half full, regardless of who
// asks. All three share the same requester-agnostic RowBlocker-Act
// spacing, so the security guarantee is identical; they differ only in
// who pays the queue-admission cost, and how much.
type BlockHammer struct {
	base

	// maxActs is the per-row activation budget over one epoch pair (two
	// half-windows): capped so a victim flanked by two max-rate aggressors
	// stays below HCfirst accumulated hammers.
	maxActs float64
	// nbl is the blacklist threshold: activations estimated before
	// throttling engages.
	nbl float64
	// minInterval spaces post-blacklist ACTs so the budget holds.
	minInterval int64
	// epoch is the filter rotation period (tREFW/2).
	epoch epoch

	filters [2]*countMin // [0] active (inserted), [1] previous epoch
	release map[int64]int64

	// policy selects the RowBlocker-Req admission policy.
	policy admissionPolicy
	// reqRelease is the proportional policy's per-requester delay window:
	// a blacklisted-row request from the source is held until this cycle.
	reqRelease map[int]int64
	// rhliACTs counts, per requester, issued ACTs whose target row's
	// estimate had already climbed past rhliRampFrac×NBL — the numerator
	// of the RowHammer likelihood index. Halved on every epoch rotation,
	// mirroring the estimate's two-epoch window: a still-blacklisted
	// hammerer keeps a high RHLI across the rotation instead of being
	// briefly re-admitted while its index re-ramps.
	rhliACTs map[int]float64
}

// countMin is a small count-min sketch: k hashed counter rows, estimate =
// min over rows. Overestimates under collisions, which for BlockHammer is
// the safe direction (false positives throttle benign rows; false
// negatives would miss aggressors).
type countMin struct {
	rows  [4][]uint32
	salts [4]uint64
}

func newCountMin(m int, seed uint64) *countMin {
	cm := &countMin{}
	for i := range cm.rows {
		cm.rows[i] = make([]uint32, m)
		cm.salts[i] = stats.Mix64(seed + uint64(i)*0x9e3779b97f4a7c15)
	}
	return cm
}

func (cm *countMin) slot(i int, key uint64) int {
	return int(stats.Mix64(key^cm.salts[i]) % uint64(len(cm.rows[i])))
}

func (cm *countMin) insert(key uint64) {
	for i := range cm.rows {
		cm.rows[i][cm.slot(i, key)]++
	}
}

func (cm *countMin) estimate(key uint64) uint32 {
	est := cm.rows[0][cm.slot(0, key)]
	for i := 1; i < len(cm.rows); i++ {
		if v := cm.rows[i][cm.slot(i, key)]; v < est {
			est = v
		}
	}
	return est
}

func (cm *countMin) clear() {
	for i := range cm.rows {
		for j := range cm.rows[i] {
			cm.rows[i][j] = 0
		}
	}
}

// cmCounters sizes each sketch row; 4096 counters across 4 hashes keeps
// the false-blacklist rate negligible for benign row working sets while
// staying far below one counter per row (the whole point of the filter).
const cmCounters = 4096

// blockHammerSafety derates the per-row activation budget below the exact
// HCfirst bound, absorbing the ±0.5-hammer accounting slack around epoch
// boundaries.
const blockHammerSafety = 0.8

// rhliRampFrac: issued ACTs to rows whose estimate has reached this
// fraction of NBL count toward the activating requester's RHLI, so a
// hammerer's index climbs during the ramp to the blacklist threshold, not
// only at the (budget-bounded, hence slow) post-blacklist trickle.
const rhliRampFrac = 0.5

// admissionPolicy selects the RowBlocker-Req variant.
type admissionPolicy int

const (
	// policyProportional delays blacklisted-row requests by
	// RHLI × minInterval per BlockHammer's full design (default).
	policyProportional admissionPolicy = iota
	// policyBinary rejects blacklisted-row requests outright at RHLI ≥ 1.
	policyBinary
	// policyBlanket rejects any blacklisted-row read on a half-full
	// queue, requester-blind (the pre-requester-ID behavior).
	policyBlanket
)

// NewBlockHammer builds the throttler for a chip's HCfirst, with
// proportional per-requester RowBlocker-Req admission.
func NewBlockHammer(p Params) (*BlockHammer, error) {
	b, err := newBase(p)
	if err != nil {
		return nil, err
	}
	m := &BlockHammer{
		base:       b,
		release:    make(map[int64]int64),
		reqRelease: make(map[int]int64),
		rhliACTs:   make(map[int]float64),
		epoch:      epoch{length: max(p.TREFW/2, 1)},
	}
	// A victim between two aggressors gains 0.5 hammer per aggressor ACT:
	// N ACTs to each side accumulate N hammers, so cap per-row ACTs over
	// the two live epochs at safety×HCfirst.
	m.maxActs = blockHammerSafety * float64(p.HCFirst)
	if m.maxActs < 2 {
		m.maxActs = 2
	}
	m.nbl = m.maxActs / 4
	if m.nbl < 1 {
		m.nbl = 1
	}
	// Post-blacklist spacing: the remaining budget spread over the epoch
	// pair, so burst(NBL) + throttled ACTs ≤ maxActs.
	m.minInterval = int64(float64(2*m.epoch.length) / (m.maxActs - m.nbl))
	if m.minInterval < 1 {
		m.minInterval = 1
	}
	m.filters[0] = newCountMin(cmCounters, p.Seed^0xb10c)
	m.filters[1] = newCountMin(cmCounters, p.Seed^0x4a44)
	return m, nil
}

// NewBlockHammerBinary builds the binary per-requester variant: a
// blacklisted-row request is rejected outright once its source's RHLI
// reaches 1. It is the comparison baseline for the proportional policy.
func NewBlockHammerBinary(p Params) (*BlockHammer, error) {
	m, err := NewBlockHammer(p)
	if err != nil {
		return nil, err
	}
	m.policy = policyBinary
	return m, nil
}

// NewBlockHammerBlanket builds the legacy requester-blind variant: queue
// admission rejects any blacklisted-row read once the queue is half full,
// whoever asks. It is the comparison baseline the per-requester policies
// are measured against.
func NewBlockHammerBlanket(p Params) (*BlockHammer, error) {
	m, err := NewBlockHammer(p)
	if err != nil {
		return nil, err
	}
	m.policy = policyBlanket
	return m, nil
}

func (m *BlockHammer) Name() string {
	switch m.policy {
	case policyBlanket:
		return "BlockHammer-blanket"
	case policyBinary:
		return "BlockHammer-binary"
	default:
		return "BlockHammer"
	}
}

func (m *BlockHammer) key(bank, row int) int64 { return int64(bank)<<32 | int64(row) }

// rotate swaps the filter roles at epoch boundaries: the stale filter is
// cleared and becomes the insertion target; estimates always cover the
// current and previous epoch.
func (m *BlockHammer) rotate(cycle int64) {
	for m.epoch.next(cycle) {
		m.filters[0], m.filters[1] = m.filters[1], m.filters[0]
		m.filters[0].clear()
		clear(m.release)
		clear(m.reqRelease)
		//rhlint:allow mapiter(independent per-key halve-or-delete; order-free)
		for k, v := range m.rhliACTs {
			if v >= 1 {
				m.rhliACTs[k] = v / 2
			} else {
				delete(m.rhliACTs, k)
			}
		}
	}
}

// estimate sums the two live epochs' counts for a row.
func (m *BlockHammer) estimate(bank, row int) float64 {
	k := uint64(m.key(bank, row))
	return float64(m.filters[0].estimate(k)) + float64(m.filters[1].estimate(k))
}

// OnActivate records the activation; BlockHammer never refreshes victims.
func (m *BlockHammer) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int {
	m.rotate(cycle)
	m.filters[0].insert(uint64(m.key(bank, row)))
	if m.estimate(bank, row) >= m.nbl {
		m.release[m.key(bank, row)] = cycle + m.minInterval
	}
	return nil
}

func (m *BlockHammer) OnAutoRefresh(bank, rowStart, rowCount int, cycle int64) []int {
	m.rotate(cycle)
	return nil
}

// ActAllowed implements Throttler's RowBlocker-Act: blacklisted rows wait
// out minInterval between activations. The answer deliberately ignores the
// requester — the per-row budget is the security invariant, and it must
// hold however the activations are attributed.
func (m *BlockHammer) ActAllowed(requester, bank, row int, cycle int64) bool {
	return m.ActDeniedUntil(bank, row, cycle) <= cycle
}

// ActDeniedUntil implements ThrottleHorizon for RowBlocker-Act: cycle when
// the row may activate, otherwise its release cycle or the next epoch
// rotation, whichever comes first.
//
// The release table alone decides it. OnActivate writes a row's entry
// only once the row's estimate has reached NBL, and rotate clears every
// entry; between rotations no estimate falls (filters[1] is frozen and
// filters[0] only gains). So a live entry marks a blacklisted row, and a
// row without one may activate whatever its estimate. Only the row's own
// ACT writes its entry, so an allowed row stays allowed until then, and a
// denial lasts until the entry's release or the rotation that clears it.
func (m *BlockHammer) ActDeniedUntil(bank, row int, cycle int64) int64 {
	m.rotate(cycle)
	rel, ok := m.release[m.key(bank, row)]
	if !ok || cycle >= rel {
		return cycle
	}
	return min(rel, m.epoch.end())
}

// AdmitRequest implements Throttler's RowBlocker-Req.
func (m *BlockHammer) AdmitRequest(requester, bank, row int, queueLoad float64, cycle int64) bool {
	return m.AdmitUntil(requester, bank, row, queueLoad, cycle) <= cycle
}

// AdmitUntil implements ThrottleHorizon for RowBlocker-Req: cycle when
// the read is admitted, otherwise the first cycle at which the policy may
// admit it, never past the next epoch rotation (which clears the release
// table and delay windows and halves every RHLI). Within an epoch a
// blacklisted row stays blacklisted and no RHLI falls.
//
// Proportional policy (default, BlockHammer's full design): the first
// blacklisted-row request from a source with a nonzero RHLI opens a delay
// window of RHLI × minInterval cycles (capped at one epoch); the request
// and any follow-ups are rejected until the window closes, then admitted.
// A borderline source (RHLI ≪ 1) pays a pause proportional to its own
// hot-row activity; a confirmed hammerer (RHLI ≥ 1) is rate-limited to
// roughly one blacklisted-row admission per spacing interval or worse.
// The refusal lasts until the window closes.
//
// Binary policy: a blacklisted-row read is rejected outright while its
// source's RHLI is ≥ 1 (the thread has personally driven a blacklist
// threshold's worth of hot-row activations this epoch pair), so until the
// epoch ends.
//
// Blanket policy: any blacklisted-row read is rejected while the queue is
// at least half full and the row is inside its spacing window, so until
// the row's release.
func (m *BlockHammer) AdmitUntil(requester, bank, row int, queueLoad float64, cycle int64) int64 {
	m.rotate(cycle)
	// A live release entry marks a blacklisted row (see ActDeniedUntil),
	// so only rows without one need the sketch.
	rel, spaced := m.release[m.key(bank, row)]
	if !spaced && m.estimate(bank, row) < m.nbl {
		return cycle
	}
	end := m.epoch.end()
	// An unknown source cannot accrue an RHLI, so it must never be
	// privileged by the per-requester policies: fall back to the blanket
	// rule for it (and for the blanket variant itself).
	if m.policy == policyBlanket || requester < 0 {
		if queueLoad < 0.5 || !spaced || cycle >= rel {
			return cycle
		}
		return min(rel, end)
	}
	if m.policy == policyBinary {
		if m.RHLI(requester) < 1 {
			return cycle
		}
		return end
	}
	// Proportional: serve out any open delay window first.
	if rel, ok := m.reqRelease[requester]; ok {
		if cycle < rel {
			return min(rel, end)
		}
		// Window served: this request has paid its RHLI-proportional
		// delay and goes through; the next one opens a fresh window.
		delete(m.reqRelease, requester)
		return cycle
	}
	delay := int64(m.RHLI(requester) * float64(m.minInterval))
	if delay <= 0 {
		return cycle
	}
	if delay > m.epoch.length {
		delay = m.epoch.length
	}
	m.reqRelease[requester] = cycle + delay
	return min(cycle+delay, end)
}

// OnRequesterACT attributes an issued demand ACT to its source: once the
// target row's estimate has climbed past rhliRampFrac×NBL, the ACT counts
// toward the requester's RowHammer likelihood index.
func (m *BlockHammer) OnRequesterACT(requester, bank, row int, cycle int64) {
	if requester < 0 {
		return
	}
	m.rotate(cycle)
	if m.estimate(bank, row) >= rhliRampFrac*m.nbl {
		m.rhliACTs[requester]++
	}
}

// RHLI returns the requester's RowHammer likelihood index for the live
// epoch pair: hot-row activations relative to the blacklist threshold.
// 0 is a certainly-benign source; ≥1 marks a hammerer.
func (m *BlockHammer) RHLI(requester int) float64 {
	return m.rhliACTs[requester] / m.nbl
}
