// Package memctrl implements the simulated memory controller of Table 6:
// FR-FCFS scheduling over 64-entry read/write queues, open-row policy
// with write draining, tREFI-paced all-bank refresh, and the hook through
// which RowHammer mitigation mechanisms observe activations and inject
// targeted victim-row refreshes.
//
// The controller owns the DRAM command stream: the channel is a pure
// timing model with no observers, every command comes from here, and the
// CommandObserver set by Observe hears of each ACT and REF after the
// mitigation mechanism has.
//
// Every demand request carries a requester (source/thread) ID, which
// feeds two consumers: the optional BLISS fairness scheduler (per-
// requester service-streak blacklisting, Config.BLISS) and the
// mitigation.Throttler hook (per-requester queue admission and ACT
// attribution, BlockHammer's RowBlocker-Req).
//
// The queues are indexed per bank (see queue.go) with incrementally
// maintained row-hit chains, so the per-cycle FR-FCFS scans cost
// O(banks-with-work) instead of O(queue). The O(queue) reference scans
// live in equivalence_test.go as pure functions of controller state; the
// randomized scheduler-equivalence test checks after every step that
// each indexed pick equals the reference pick on the same state.
package memctrl

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/mitigation"
)

// Config sizes the controller.
type Config struct {
	ReadQueue  int // demand read queue capacity (Table 6: 64)
	WriteQueue int // write drain high watermark

	// BLISS enables the blacklisting fairness scheduler (after Subramanian
	// et al.): a requester served BLISSStreak consecutive demand reads is
	// blacklisted until the next clearing interval, and non-blacklisted
	// requesters' reads take scheduling priority. The cheap streak counter
	// is what makes a max-MLP attacker lose its FR-FCFS row-hit monopoly
	// without per-request bookkeeping.
	BLISS bool
	// BLISSStreak is the consecutive-service count that blacklists a
	// requester (default DefaultBLISSStreak).
	BLISSStreak int
	// BLISSClearCycles is the blacklist clearing period in memory-clock
	// cycles (default DefaultBLISSClearCycles).
	BLISSClearCycles int64
}

// BLISS's defaults, applied by New to a zero or negative BLISSStreak or
// BLISSClearCycles.
const (
	DefaultBLISSStreak      = 4
	DefaultBLISSClearCycles = 10_000
)

// Table6Config returns the paper's controller parameters.
func Table6Config() Config { return Config{ReadQueue: 64, WriteQueue: 64} }

// mitOp is a mitigation-triggered victim refresh: an ACT+PRE pair that
// restores a row's charge.
type mitOp struct {
	bank, row int
	activated bool
}

// Stats aggregates controller activity, split between demand and
// mitigation traffic so the Figure 10a bandwidth overhead can be derived.
type Stats struct {
	Reads, Writes int64

	DemandACTs     int64
	MitigationACTs int64
	REFs           int64

	// MitigationBusyCycles: bank-cycles consumed by mitigation refreshes
	// (tRC per targeted refresh).
	MitigationBusyCycles int64
	// RefreshBusyCycles: bank-cycles consumed by REF commands.
	RefreshBusyCycles int64
	// DemandBusyCycles: bank-cycles consumed by demand activates (tRC
	// per row cycle, an upper-bound attribution).
	DemandBusyCycles int64

	ReadQueueFull int64

	// ThrottledReads counts demand reads rejected at queue admission
	// because their target row was blacklisted by a throttling mechanism
	// (mitigation.Throttler). Unit: requests.
	ThrottledReads int64
	// ThrottleStallCycles counts scheduler passes that skipped at least
	// one throttle-blocked request. Unit: (approximately) memory cycles.
	ThrottleStallCycles int64

	// BLISSBlacklists counts requester blacklisting events of the BLISS
	// fairness scheduler.
	BLISSBlacklists int64

	// PerRequester splits demand-read activity by source, indexed by
	// requester ID (grown on demand; negative/unknown sources are counted
	// only in the aggregate fields above).
	PerRequester []RequesterStats
}

// RequesterStats is one source's slice of the controller's demand-read
// activity.
type RequesterStats struct {
	Reads          int64 // reads accepted into the queue
	ServedReads    int64 // reads whose column command issued
	ThrottledReads int64 // reads rejected at admission by the throttler
	Blacklistings  int64 // times BLISS blacklisted this requester

	// BusBusyCycles attributes demand DRAM occupancy to the source: tRC
	// bank-cycles per demand ACT the requester's request caused (the same
	// upper-bound attribution as Stats.DemandBusyCycles) plus the data-bus
	// burst cycles of every column command served for it. Together with
	// the sibling entries it completes the DoS picture: who consumed the
	// memory system, not just who asked.
	BusBusyCycles int64
}

// BusSharePct returns this requester's share of all per-requester
// attributed demand bus time, in percent (0 when nothing is attributed).
func (s *Stats) BusSharePct(id int) float64 {
	if id < 0 || id >= len(s.PerRequester) {
		return 0
	}
	var total int64
	for _, rs := range s.PerRequester {
		total += rs.BusBusyCycles
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(s.PerRequester[id].BusBusyCycles) / float64(total)
}

// maxTrackedRequesters bounds the per-requester stats table. Requester
// IDs come from trace files as well as cores, so an adversarial or
// corrupt trace could otherwise force a multi-gigabyte allocation with
// one huge ID; sources beyond the cap are counted only in the aggregate
// fields.
const maxTrackedRequesters = 1024

// reqStats returns the per-requester slot for id, growing the slice on
// first sight; nil for unknown or untracked sources.
//
//rhlint:hotpath
func (s *Stats) reqStats(id int) *RequesterStats {
	if id < 0 || id >= maxTrackedRequesters {
		return nil
	}
	for len(s.PerRequester) <= id {
		//rhlint:allow hotalloc(amortized: grows once per newly seen requester, capped at maxTrackedRequesters)
		s.PerRequester = append(s.PerRequester, RequesterStats{})
	}
	return &s.PerRequester[id]
}

// Controller owns one channel. Drive it with Tick once per memory-clock
// cycle.
type Controller struct {
	cfg      Config
	ch       *dram.Channel
	mapper   *dram.AddressMapper
	mech     mitigation.Mechanism
	throttle mitigation.Throttler // non-nil when mech implements it

	readQ       reqQueue
	writeQ      reqQueue
	free        *request // recycled request nodes (chained via qnext)
	mitQ        []mitOp
	mitBankBusy []bool // scratch: banks owned by an earlier op this cycle

	draining   bool
	refPending bool
	nextREF    int64
	refi       int64

	// Pending read-data returns, in issue order (fixed CL+BL ⇒ FIFO).
	returns []retEvent

	cycle int64

	// changes counts reads entering and leaving the read queue and writes
	// entering the write queue; see Changes.
	changes uint64
	// throttledRefusal records whether the last read EnqueueRead refused
	// was turned away by the throttler, rather than by a full read queue.
	throttledRefusal bool

	// BLISS fairness state: the last-served requester, its service streak,
	// and the current blacklist (cleared every BLISSClearCycles). The
	// blacklist is a dense generation-stamped slice — requester id is
	// blacklisted iff blissBlackGen[id] == blissGen — so membership is one
	// compare and clearing is one increment; ids past the dense cap spill
	// into blissOver. blissCount mirrors the blacklist's size and
	// demotedReads counts queued reads whose requester is blacklisted, so
	// empty class passes are skipped without walking the queue.
	blissLast     int
	blissStreak   int
	blissGen      uint64
	blissBlackGen []uint64
	blissOver     map[int]bool
	blissCount    int
	demotedReads  int
	blissClear    int64

	// lastThrottleStall deduplicates ThrottleStallCycles across the BLISS
	// scheduler's two class passes within one cycle.
	lastThrottleStall int64

	// obs watches the command stream (nil: nobody does); see Observe.
	obs CommandObserver

	Stats Stats
}

type retEvent struct {
	cycle int64
	fn    func()
}

// New builds a controller over the channel. mech may be nil (no
// mitigation). The channel must have one rank: every command the
// controller issues targets rank 0.
func New(cfg Config, ch *dram.Channel, mech mitigation.Mechanism) (*Controller, error) {
	if cfg.ReadQueue <= 0 || cfg.WriteQueue <= 0 {
		return nil, errors.New("memctrl: queue capacities must be positive")
	}
	if ch.Geo.Ranks != 1 {
		return nil, fmt.Errorf("memctrl: the controller drives one rank, the channel has %d", ch.Geo.Ranks)
	}
	mapper, err := dram.NewAddressMapper(ch.Geo)
	if err != nil {
		return nil, err
	}
	if mech == nil {
		mech = mitigation.NewNone()
	}
	if cfg.BLISS {
		if cfg.BLISSStreak <= 0 {
			cfg.BLISSStreak = DefaultBLISSStreak
		}
		if cfg.BLISSClearCycles <= 0 {
			cfg.BLISSClearCycles = DefaultBLISSClearCycles
		}
	}
	c := &Controller{
		cfg:         cfg,
		ch:          ch,
		mapper:      mapper,
		mech:        mech,
		mitBankBusy: make([]bool, ch.Geo.Banks()),
		blissLast:   mitigation.RequesterNone,
	}
	c.readQ.init(ch.Geo.Banks())
	c.writeQ.init(ch.Geo.Banks())
	if cfg.BLISS {
		c.blissGen = 1
		c.blissBlackGen = make([]uint64, maxTrackedRequesters)
		c.blissClear = cfg.BLISSClearCycles
	}
	c.throttle, _ = mech.(mitigation.Throttler)
	c.refi = int64(float64(ch.T.REFI) / mech.RefreshMultiplier())
	if c.refi < int64(ch.T.RFC)+1 {
		c.refi = int64(ch.T.RFC) + 1 // refresh storm floor: back-to-back REF
	}
	c.nextREF = c.refi
	return c, nil
}

// CommandObserver watches the DRAM command stream a controller issues:
// every ACT, demand or mitigation, and the rows each REF covers in each
// bank (rowCount rows from rowStart, wrapping at the bank's last row).
// The attack subsystem's hammer accountant is one.
type CommandObserver interface {
	OnACT(rank, bank, row int, cycle int64)
	OnRefresh(rank, bank, rowStart, rowCount int, cycle int64)
}

// Observe sets the command-stream observer; nil detaches it. The observer
// hears of each command after the mitigation mechanism has.
func (c *Controller) Observe(o CommandObserver) { c.obs = o }

// activate issues an ACT and accounts it, in a fixed order: statistics
// for a mitigation refresh (fromMitigation) or for a demand activation
// caused by requester req, whose source the throttler records; then the
// mechanism, whose victims join mitQ; then the observer.
//
//rhlint:hotpath
func (c *Controller) activate(bank, row, req int, fromMitigation bool) {
	c.issueRowChange(dram.CmdACT, bank, row)
	if fromMitigation {
		c.Stats.MitigationACTs++
		c.Stats.MitigationBusyCycles += int64(c.ch.T.RC)
	} else {
		c.Stats.DemandACTs++
		c.Stats.DemandBusyCycles += int64(c.ch.T.RC)
		if rs := c.Stats.reqStats(req); rs != nil {
			rs.BusBusyCycles += int64(c.ch.T.RC)
		}
		if c.throttle != nil {
			c.throttle.OnRequesterACT(req, bank, row, c.cycle)
		}
	}
	// The victims slice is the mechanism's buffer, valid only until its
	// next call: copy the rows into mitQ before anything can issue.
	for _, v := range c.mech.OnActivate(bank, row, c.cycle, fromMitigation) {
		c.enqueueMitigation(bank, v)
	}
	if c.obs != nil {
		c.obs.OnACT(0, bank, row, c.cycle)
	}
}

// enqueueMitigation queues a victim refresh of the row unless an
// identical one is still pending: one refresh suffices.
//
//rhlint:hotpath
func (c *Controller) enqueueMitigation(bank, row int) {
	for _, op := range c.mitQ {
		if op.bank == bank && op.row == row && !op.activated {
			return
		}
	}
	//rhlint:allow hotalloc(amortized: ops leave mitQ by in-place removal, so its capacity is reused)
	c.mitQ = append(c.mitQ, mitOp{bank: bank, row: row})
}

// newReq pops a recycled request node or allocates one; the steady-state
// saturated Tick path recycles every node and allocates nothing.
//
//rhlint:hotpath
func (c *Controller) newReq() *request {
	if r := c.free; r != nil {
		c.free = r.qnext
		r.qnext = nil
		return r
	}
	//rhlint:allow hotalloc(cold path: the free list only misses while the queues first fill)
	return &request{}
}

// freeReq clears the node (dropping its callback reference) and chains it
// on the free list.
//
//rhlint:hotpath
func (c *Controller) freeReq(r *request) {
	*r = request{qnext: c.free}
	c.free = r
}

// EnqueueRead accepts a demand read for the given requester; returns
// false when the queue is full or the throttling mechanism rejects the
// request at admission (BlockHammer's RowBlocker-Req).
//
//rhlint:hotpath
func (c *Controller) EnqueueRead(requester int, addr int64, onDone func()) bool {
	// Read-after-write forwarding from the write backlog (which can only
	// hold the line when it is non-empty, so the usual read-heavy phase
	// skips the line mapping entirely).
	if c.writeQ.n > 0 && c.writeQueued(c.mapper.Map(c.mapper.LineAddress(addr))) {
		if onDone != nil {
			//rhlint:allow hotalloc(amortized: fireReturns compacts in place, so capacity is reused)
			c.returns = append(c.returns, retEvent{cycle: c.cycle + 1, fn: onDone})
		}
		c.Stats.Reads++
		if rs := c.Stats.reqStats(requester); rs != nil {
			rs.Reads++
		}
		return true
	}
	if c.readQ.n >= c.cfg.ReadQueue {
		c.Stats.ReadQueueFull++
		c.throttledRefusal = false
		return false
	}
	a := c.mapper.Map(addr)
	if c.throttle != nil &&
		!c.throttle.AdmitRequest(requester, a.Bank, a.Row,
			float64(c.readQ.n)/float64(c.cfg.ReadQueue), c.cycle) {
		c.Stats.ThrottledReads++
		if rs := c.Stats.reqStats(requester); rs != nil {
			rs.ThrottledReads++
		}
		c.throttledRefusal = true
		return false
	}
	r := c.newReq()
	r.addr, r.req, r.onDone, r.queued = a, requester, onDone, c.cycle
	c.readQ.push(r, c.ch.OpenRow(0, a.Bank))
	c.changes++
	if c.cfg.BLISS && c.blissIsBlack(requester) {
		c.demotedReads++
	}
	c.Stats.Reads++
	if rs := c.Stats.reqStats(requester); rs != nil {
		rs.Reads++
	}
	return true
}

// writeQueued reports whether the write backlog holds the line: a read of
// it is served by forwarding, and a second write to it coalesces.
func (c *Controller) writeQueued(a dram.Address) bool {
	for w := c.writeQ.banks[a.Bank].head; w != nil; w = w.bnext {
		if w.addr == a {
			return true
		}
	}
	return false
}

// EnqueueWrite accepts a write (always; the backlog stands in for the
// write buffer hierarchy above the 64-entry drain queue). requester is
// the source whose fill or flush produced the writeback.
func (c *Controller) EnqueueWrite(requester int, addr int64) {
	a := c.mapper.Map(addr)
	if c.writeQueued(a) {
		return // coalesce
	}
	r := c.newReq()
	r.addr, r.req, r.write, r.queued = a, requester, true, c.cycle
	c.writeQ.push(r, c.ch.OpenRow(0, a.Bank))
	c.changes++
	c.Stats.Writes++
}

// Changes counts the reads that have entered or left the read queue and
// the writes queued so far: the events that can change how EnqueueRead
// answers a read it refused. While the count holds still, so does a
// queue-full refusal; a throttled refusal also waits on the throttler,
// whose state moves only inside Tick.
//
//rhlint:hotpath
func (c *Controller) Changes() uint64 { return c.changes }

// RefusalThrottled reports whether the last read EnqueueRead refused was
// turned away by the throttler; otherwise the read queue was full.
//
//rhlint:hotpath
func (c *Controller) RefusalThrottled() bool { return c.throttledRefusal }

// RepeatRefusals counts n more refusals of a read EnqueueRead refused,
// exactly as n retries of it would have: in ReadQueueFull, or, when the
// throttler refused it, in ThrottledReads and the requester's entry. The
// caller vouches that the answer cannot have changed since the refusal
// (Changes, and Cycle for a throttled read, hold still), so the throttler
// is not asked again: a repeat of a refusal has no other effect.
//
//rhlint:hotpath
func (c *Controller) RepeatRefusals(requester int, throttled bool, n int64) {
	if !throttled {
		c.Stats.ReadQueueFull += n
		return
	}
	c.Stats.ThrottledReads += n
	if rs := c.Stats.reqStats(requester); rs != nil {
		rs.ThrottledReads += n
	}
}

// PendingReads reports demand reads still queued (for drain-to-idle).
func (c *Controller) PendingReads() int { return c.readQ.n }

// Cycle returns the controller's current memory-clock cycle.
func (c *Controller) Cycle() int64 { return c.cycle }

// NextWork returns a lower bound on the next memory cycle at which Tick
// could do anything beyond advancing the clock: issue or progress a
// command, fire a read return, or mutate statistics. Every Tick at a
// cycle strictly below the bound is a no-op that AdvanceIdle replays
// exactly, so the event engine may skip straight to it. The bound is
// conservative (a real Tick at the returned cycle may still find nothing
// ready — rank-scoped DRAM constraints are ignored); it is never late.
//
//rhlint:hotpath
func (c *Controller) NextWork() int64 {
	// States whose Tick mutates per-cycle state even without issuing:
	// a due refresh keeps closing banks, mitigation ops flip their
	// activated flag outside the command slot, and a throttling mechanism
	// is consulted (ThrottleStallCycles counts its denials) whenever any
	// request is queued.
	if c.refPending || len(c.mitQ) > 0 ||
		(c.throttle != nil && (c.readQ.n > 0 || c.writeQ.n > 0)) {
		return c.cycle + 1
	}
	w := c.nextREF
	for _, ev := range c.returns {
		if ev.cycle < w {
			w = ev.cycle
		}
	}
	// Per-bank lower bounds from the bucket census: a bank contributes
	// nextACT when closed, nextRD/nextWR for queued row hits, and nextPRE
	// when a queued request wants it closed — the same value set the
	// per-request reference scan minimizes over.
	for b := range c.readQ.banks {
		rb := &c.readQ.banks[b]
		wb := &c.writeQ.banks[b]
		if rb.n == 0 && wb.n == 0 {
			continue
		}
		open, nextACT, nextPRE, nextRD, nextWR := c.ch.BankTimes(0, b)
		if open == -1 {
			if nextACT < w {
				w = nextACT
			}
			continue
		}
		if rb.hitN > 0 && nextRD < w {
			w = nextRD
		}
		if wb.hitN > 0 && nextWR < w {
			w = nextWR
		}
		if (rb.n > rb.hitN || wb.n > wb.hitN) && nextPRE < w {
			w = nextPRE
		}
	}
	if w <= c.cycle {
		w = c.cycle + 1
	}
	return w
}

// AdvanceIdle advances the controller k memory cycles, replaying the only
// time-triggered state the skipped no-op Ticks would have touched: the
// BLISS clearing schedule. Legal only when every skipped cycle is below
// NextWork().
//
//rhlint:hotpath
func (c *Controller) AdvanceIdle(k int64) {
	c.cycle += k
	if c.cfg.BLISS {
		// The per-cycle loop fires a clear at exactly cycle==blissClear
		// (ticks hit every integer), so the replay steps period-by-period.
		for c.blissClear <= c.cycle {
			c.blissClearAll()
			c.blissClear += c.cfg.BLISSClearCycles
		}
	}
}

// Tick advances one memory-clock cycle and issues at most one command.
//
//rhlint:hotpath
func (c *Controller) Tick() {
	c.cycle++
	c.fireReturns()

	// BLISS forgives all blacklists every clearing interval, so a phase
	// change in a once-greedy requester is not punished forever.
	if c.cfg.BLISS && c.cycle >= c.blissClear {
		c.blissClearAll()
		c.blissClear = c.cycle + c.cfg.BLISSClearCycles
	}

	if c.cycle >= c.nextREF {
		c.refPending = true
	}
	// Priority 1: refresh (close banks, then REF).
	if c.refPending {
		if c.tryRefresh() {
			return
		}
		// Banks still closing: fall through only if nothing to do for
		// refresh this cycle is impossible — tryRefresh issues PREs.
	}
	// Priority 2: mitigation victim refreshes.
	if c.tryMitigation() {
		return
	}
	if c.refPending {
		return // don't admit new demand work while a REF is due
	}
	// Priority 3: demand scheduling, FR-FCFS with write draining.
	c.updateDrainMode()
	if c.draining {
		if c.schedule(&c.writeQ, true) {
			return
		}
		// While draining, still serve row-hit reads opportunistically —
		// honoring the BLISS class order, which applies wherever reads
		// compete for the command slot.
		if c.cfg.BLISS && c.blissCount > 0 {
			if !c.scheduleRowHits(&c.readQ, false, -1, classFilter{kind: classFavored}) {
				c.scheduleRowHits(&c.readQ, false, -1, classFilter{kind: classDemoted})
			}
		} else {
			c.scheduleRowHits(&c.readQ, false, -1, classFilter{})
		}
		return
	}
	if c.schedule(&c.readQ, false) {
		return
	}
	// Idle read queue: sneak writes out.
	if c.writeQ.n > 0 {
		c.schedule(&c.writeQ, true)
	}
}

// issueRowChange issues an ACT or PRE — the commands that change a bank's
// open row — and rebuilds both queues' hit chains for the bank, keeping
// the first-ready candidate sets exact.
//
//rhlint:hotpath
func (c *Controller) issueRowChange(cmd dram.Command, bank, row int) {
	c.ch.Issue(cmd, 0, bank, row, c.cycle)
	open := -1
	if cmd == dram.CmdACT {
		open = row
	}
	c.readQ.bankRowChanged(bank, open)
	c.writeQ.bankRowChanged(bank, open)
}

//rhlint:hotpath
func (c *Controller) fireReturns() {
	n := 0
	for _, ev := range c.returns {
		if ev.cycle <= c.cycle {
			ev.fn()
		} else {
			c.returns[n] = ev
			n++
		}
	}
	c.returns = c.returns[:n]
}

// tryRefresh closes open banks and issues REF when possible, then
// publishes the rows the REF covers bank by bank in ascending order, the
// mechanism before the observer. Returns true if it consumed the command
// slot.
func (c *Controller) tryRefresh() bool {
	if c.ch.CanIssue(dram.CmdREF, 0, 0, 0, c.cycle) {
		// REF requires every bank precharged, so the hit chains are
		// already empty and stay valid.
		start, rows := c.ch.RefreshPointer(0), c.ch.T.RowsPerREF
		c.ch.Issue(dram.CmdREF, 0, 0, 0, c.cycle)
		for b := 0; b < c.ch.Geo.Banks(); b++ {
			for _, v := range c.mech.OnAutoRefresh(b, start, rows, c.cycle) {
				c.enqueueMitigation(b, v)
			}
			if c.obs != nil {
				c.obs.OnRefresh(0, b, start, rows, c.cycle)
			}
		}
		c.Stats.REFs++
		c.Stats.RefreshBusyCycles += int64(c.ch.T.RFC) * int64(c.ch.Geo.Banks())
		c.refPending = false
		c.nextREF += c.refi
		return true
	}
	for b := 0; b < c.ch.Geo.Banks(); b++ {
		if c.ch.OpenRow(0, b) != -1 && c.ch.CanIssue(dram.CmdPRE, 0, b, 0, c.cycle) {
			c.issueRowChange(dram.CmdPRE, b, 0)
			return true
		}
	}
	return false
}

// tryMitigation advances pending victim refreshes. Ops on different
// banks proceed concurrently (one in flight per bank); at most one
// command issues per cycle. Returns true if it consumed the command slot.
func (c *Controller) tryMitigation() bool {
	if len(c.mitQ) == 0 {
		return false
	}
	for b := range c.mitBankBusy {
		c.mitBankBusy[b] = false
	}
	for idx := 0; idx < len(c.mitQ); idx++ {
		op := &c.mitQ[idx]
		if c.mitBankBusy[op.bank] {
			continue // an earlier op owns this bank
		}
		c.mitBankBusy[op.bank] = true
		if !op.activated {
			switch open := c.ch.OpenRow(0, op.bank); {
			case open == op.row:
				// Row already open: its charge is restored; finish with
				// a precharge on a later cycle.
				op.activated = true
			case open != -1:
				if c.ch.CanIssue(dram.CmdPRE, 0, op.bank, 0, c.cycle) {
					c.issueRowChange(dram.CmdPRE, op.bank, 0)
					return true
				}
			default:
				if c.ch.CanIssue(dram.CmdACT, 0, op.bank, op.row, c.cycle) {
					c.activate(op.bank, op.row, mitigation.RequesterNone, true)
					op.activated = true
					return true
				}
			}
			continue
		}
		if c.ch.CanIssue(dram.CmdPRE, 0, op.bank, 0, c.cycle) {
			c.issueRowChange(dram.CmdPRE, op.bank, 0)
			//rhlint:allow hotalloc(in-place removal: dst and src share mitQ's backing array, so the append never grows it)
			c.mitQ = append(c.mitQ[:idx], c.mitQ[idx+1:]...)
			return true
		}
	}
	return false
}

// updateDrainMode applies write-drain hysteresis.
func (c *Controller) updateDrainMode() {
	hi := c.cfg.WriteQueue
	lo := c.cfg.WriteQueue / 4
	if !c.draining && c.writeQ.n >= hi {
		c.draining = true
	}
	if c.draining && c.writeQ.n <= lo {
		c.draining = false
	}
}

// starveLimit is the age (memory cycles) past which the oldest request
// preempts row hits to its bank. Unbounded row-hit priority lets
// streaming cores extend a bank's tRTP horizon forever and starve a
// row-conflict request — real FR-FCFS schedulers cap the hit streak.
const starveLimit = 512

// classFilter selects the subset of a queue a scheduling pass may serve:
// everything, the BLISS favored class, the demoted class, or the demoted
// class minus one bank (a starving favored request's claim).
type classFilter struct {
	kind    classKind
	notBank int
}

type classKind uint8

const (
	classAll classKind = iota
	classFavored
	classDemoted
	classDemotedNotBank
)

func (c *Controller) classMatch(f classFilter, r *request) bool {
	switch f.kind {
	case classAll:
		return true
	case classFavored:
		return !c.blissIsBlack(r.req)
	case classDemoted:
		return c.blissIsBlack(r.req)
	default:
		return c.blissIsBlack(r.req) && r.addr.Bank != f.notBank
	}
}

// blissIsBlack reports whether a requester is currently blacklisted.
func (c *Controller) blissIsBlack(id int) bool {
	if id < 0 {
		return false
	}
	if id < maxTrackedRequesters {
		return c.blissBlackGen != nil && c.blissBlackGen[id] == c.blissGen
	}
	return c.blissOver[id]
}

// blissBlacklist adds a requester (not currently blacklisted) to the
// blacklist and re-derives the demoted-read census: every queued read of
// the requester switches class.
func (c *Controller) blissBlacklist(id int) {
	if id < maxTrackedRequesters {
		c.blissBlackGen[id] = c.blissGen
	} else {
		if c.blissOver == nil {
			//rhlint:allow hotalloc(one-time lazy init of the overflow map; requester ids below maxTrackedRequesters use the flat array)
			c.blissOver = make(map[int]bool)
		}
		c.blissOver[id] = true
	}
	c.blissCount++
	for r := c.readQ.head; r != nil; r = r.qnext {
		if r.req == id {
			c.demotedReads++
		}
	}
}

// blissClearAll forgives every blacklist: one generation bump.
func (c *Controller) blissClearAll() {
	c.blissGen++
	c.blissCount = 0
	c.demotedReads = 0
	if len(c.blissOver) > 0 {
		for k := range c.blissOver {
			delete(c.blissOver, k)
		}
	}
}

// schedule applies FR-FCFS to the queue. Under BLISS, demand reads are
// scheduled in two classes: requests from non-blacklisted requesters take
// the command slot first, and a blacklisted requester's requests are
// considered only when no favored request can use the cycle — BLISS
// demotes, it never blocks, so liveness is untouched.
// Returns true if a command issued.
//
//rhlint:hotpath
func (c *Controller) schedule(q *reqQueue, write bool) bool {
	if c.cfg.BLISS && !write && c.blissCount > 0 {
		issued, starving := c.scheduleClass(q, write, classFilter{kind: classFavored})
		if issued {
			return true
		}
		// A *starving* favored request claims its bank from the demoted
		// pass too, exactly as row hits yield inside one FR-FCFS pass:
		// otherwise demoted row hits keep extending the bank's tRTP
		// horizon and the favored request starves behind the very traffic
		// BLISS demoted. Short of starvation, demoted requests may fill
		// the idle slot anywhere — BLISS reorders, it does not idle banks.
		demoted := classFilter{kind: classDemoted}
		if starving >= 0 {
			demoted = classFilter{kind: classDemotedNotBank, notBank: starving}
		}
		issued, _ = c.scheduleClass(q, write, demoted)
		return issued
	}
	issued, _ := c.scheduleClass(q, write, classFilter{})
	return issued
}

// scheduleClass applies FR-FCFS to the subset of q matching the class
// filter: ready row-hit column commands first, otherwise progress the
// oldest request (ACT or PRE). Once the oldest request is starving, it
// preempts row hits to its bank. A throttle-blacklisted request is
// waiting on the mechanism, not on the scheduler, so it neither counts
// as starving nor preempts anyone. Returns whether a command issued and
// the bank of the class's oldest schedulable request when that request
// is starving, else -1.
//
//rhlint:hotpath
func (c *Controller) scheduleClass(q *reqQueue, write bool, f classFilter) (issued bool, starvingBank int) {
	if q.n == 0 {
		return false, -1
	}
	// A class with no queued members issues nothing and consults the
	// throttler for nothing (class eligibility is checked before the
	// throttle below), so the pass can be skipped outright on the
	// maintained census.
	if !write {
		switch f.kind {
		case classFavored:
			if q.n == c.demotedReads {
				return false, -1
			}
		case classDemoted, classDemotedNotBank:
			if c.demotedReads == 0 {
				return false, -1
			}
		}
	}
	// One throttle scan per pass: find the oldest eligible unthrottled
	// request, in arrival order, and hand it to progressReq, so
	// ActAllowed is not asked again over the same prefix. The queries
	// themselves move no result: BlockHammer answers from its release
	// table, and its epoch rotation is idempotent in the cycle.
	var oldest *request
	throttleSkip := false
	for r := q.head; r != nil; r = r.qnext {
		if !c.classMatch(f, r) {
			continue
		}
		if c.throttle != nil && c.throttledIdle(r) {
			throttleSkip = true
			continue
		}
		oldest = r
		break
	}
	// Count at most one throttle-stall per memory cycle: under BLISS this
	// method runs once per class, and blocked requests in both classes
	// must not inflate the (per-cycle) stat.
	if throttleSkip && c.lastThrottleStall != c.cycle {
		c.Stats.ThrottleStallCycles++
		c.lastThrottleStall = c.cycle
	}
	if oldest == nil {
		// Every eligible request is throttle-blocked with its row closed:
		// no row hit or progress is possible for this class this cycle.
		return false, -1
	}
	starvingBank = -1
	if c.cycle-oldest.queued > starveLimit {
		starvingBank = oldest.addr.Bank
		if c.progressReq(q, oldest, write) {
			return true, starvingBank
		}
	}
	if c.scheduleRowHits(q, write, starvingBank, f) {
		return true, starvingBank
	}
	if starvingBank < 0 && c.progressReq(q, oldest, write) {
		return true, -1
	}
	return false, starvingBank
}

// throttledIdle reports whether a request is blocked by the throttling
// mechanism: its row is not open (it would need an ACT) and the mechanism
// denies that ACT.
//
//rhlint:hotpath
func (c *Controller) throttledIdle(req *request) bool {
	if c.throttle == nil || c.ch.OpenRow(0, req.addr.Bank) == req.addr.Row {
		return false
	}
	return !c.throttle.ActAllowed(req.req, req.addr.Bank, req.addr.Row, c.cycle)
}

// progressReq moves the oldest schedulable request — as determined by
// scheduleClass's throttle scan — forward: serve it when its row is open,
// otherwise open (or close) the row it needs.
//
//rhlint:hotpath
func (c *Controller) progressReq(q *reqQueue, req *request, write bool) bool {
	bank := req.addr.Bank
	open := c.ch.OpenRow(0, bank)
	if open == req.addr.Row {
		return c.serveReq(q, req, write)
	}
	if open == -1 {
		if c.ch.CanIssue(dram.CmdACT, 0, bank, req.addr.Row, c.cycle) {
			c.activate(bank, req.addr.Row, req.req, false)
			return true
		}
		return false
	}
	if c.ch.CanIssue(dram.CmdPRE, 0, bank, 0, c.cycle) {
		c.issueRowChange(dram.CmdPRE, bank, 0)
		return true
	}
	return false
}

// scheduleRowHits issues the first (arrival order) ready row-hit column
// access in q matching the class filter, skipping excludeBank (a starving
// request's bank). Returns true if a command issued.
//
//rhlint:hotpath
func (c *Controller) scheduleRowHits(q *reqQueue, write bool, excludeBank int, f classFilter) bool {
	r := c.firstReadyHit(q, excludeBank, f)
	if r == nil {
		return false
	}
	c.issueColumn(q, r, write)
	return true
}

// firstReadyHit returns the first request in arrival order, among q's
// members matching the class filter outside excludeBank, whose row is
// open and whose column command can issue this cycle; nil when none can.
// It only reads state.
//
// The scan walks hit chains instead of the queue: each bank's earliest
// matching candidate stands for the whole bank, because CanIssue for a
// column command is uniform across requests targeting the bank's open
// row. The pick is therefore the lowest-seq bank candidate that can
// issue, and timing is checked only for candidates older than the best
// found so far.
//
//rhlint:hotpath
func (c *Controller) firstReadyHit(q *reqQueue, excludeBank int, f classFilter) *request {
	var best *request
	for w, word := range q.hitMask {
		for m := word; m != 0; m &= m - 1 {
			b := w<<6 | bits.TrailingZeros64(m)
			if b == excludeBank || (f.kind == classDemotedNotBank && b == f.notBank) {
				continue
			}
			r := q.banks[b].hitHead
			if f.kind != classAll {
				for r != nil && !c.classMatch(f, r) {
					r = r.hnext
				}
			}
			if r != nil && (best == nil || r.seq < best.seq) && c.columnReady(r) {
				best = r
			}
		}
	}
	return best
}

// columnCmd is the column command that serves r.
func columnCmd(r *request) dram.Command {
	if r.write {
		return dram.CmdWR
	}
	return dram.CmdRD
}

// columnReady reports whether r's column command can issue this cycle.
//
//rhlint:hotpath
func (c *Controller) columnReady(r *request) bool {
	return c.ch.CanIssue(columnCmd(r), 0, r.addr.Bank, r.addr.Row, c.cycle)
}

// serveReq issues the column command for r (whose row must be open) and
// removes it from the queue. Returns false when timing blocks it.
//
//rhlint:hotpath
func (c *Controller) serveReq(q *reqQueue, r *request, write bool) bool {
	if !c.columnReady(r) {
		return false
	}
	c.issueColumn(q, r, write)
	return true
}

// issueColumn issues r's column command, which must be ready, and removes
// r from the queue.
//
//rhlint:hotpath
func (c *Controller) issueColumn(q *reqQueue, r *request, write bool) {
	ready := c.ch.Issue(columnCmd(r), 0, r.addr.Bank, r.addr.Row, c.cycle)
	if !r.write && r.onDone != nil {
		//rhlint:allow hotalloc(amortized: fireReturns compacts in place, so capacity is reused)
		c.returns = append(c.returns, retEvent{cycle: ready, fn: r.onDone})
	}
	// Data-bus occupancy: every served column command burns BL clocks of
	// the shared bus for its requester, row hit or not.
	if rs := c.Stats.reqStats(r.req); rs != nil {
		rs.BusBusyCycles += int64(c.ch.T.BL)
	}
	if !write {
		c.changes++
		if rs := c.Stats.reqStats(r.req); rs != nil {
			rs.ServedReads++
		}
		// BLISS streak accounting: a requester monopolizing consecutive
		// read service gets blacklisted until the next clearing interval.
		if c.cfg.BLISS {
			if r.req == c.blissLast {
				c.blissStreak++
			} else {
				c.blissLast, c.blissStreak = r.req, 1
			}
			if c.blissStreak >= c.cfg.BLISSStreak {
				if r.req >= 0 && !c.blissIsBlack(r.req) {
					c.blissBlacklist(r.req)
					c.Stats.BLISSBlacklists++
					if rs := c.Stats.reqStats(r.req); rs != nil {
						rs.Blacklistings++
					}
				}
				c.blissStreak = 0
			}
			// The census counted r (still queued) if its requester is
			// blacklisted — including a blacklisting this very service.
			if c.blissIsBlack(r.req) {
				c.demotedReads--
			}
		}
	}
	q.remove(r)
	c.freeReq(r)
}
