package memctrl

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/mitigation"
)

// This file certifies the indexed scheduler (queue.go buckets, hit
// chains, dense BLISS state) against O(queue) reference scans over the
// arrival-order queue lists. The references are pure functions of
// controller state: one controller is driven through randomized request
// streams, and after every step each indexed pick — first-ready row hit,
// no-op horizon, write-backlog lookup, demoted-read census, hit-candidate
// banks — must equal the reference pick on the same state.
//
// The mechanisms are deliberately stateful (PRNG-driven throttling,
// victim refreshes), so the walks that consult them run only inside Tick
// and are never replayed here: the checks below touch no mechanism.

// eqMech is a stateful mechanism exercising every controller hook:
// random victim refreshes (mitigation queue pressure), random ACT
// throttling, and random admission denial.
type eqMech struct {
	mitigation.None
	rng *rand.Rand
}

func (m *eqMech) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int {
	if !fromMitigation && m.rng.Intn(8) == 0 {
		return []int{row - 1, row + 1}
	}
	return nil
}

func (m *eqMech) ActAllowed(requester, bank, row int, cycle int64) bool {
	return m.rng.Intn(16) != 0
}

func (m *eqMech) AdmitRequest(requester, bank, row int, queueLoad float64, cycle int64) bool {
	return m.rng.Intn(12) != 0
}

func (m *eqMech) OnRequesterACT(requester, bank, row int, cycle int64) {}

// refFirstReadyHit is the reference first-ready scan: the first request
// in arrival order matching the class filter, outside excludeBank, whose
// bank has its row open and whose column command can issue this cycle.
func refFirstReadyHit(c *Controller, q *reqQueue, excludeBank int, f classFilter) *request {
	for r := q.head; r != nil; r = r.qnext {
		if !c.classMatch(f, r) || r.addr.Bank == excludeBank ||
			c.ch.OpenRow(0, r.addr.Bank) != r.addr.Row {
			continue
		}
		cmd := dram.CmdRD
		if r.write {
			cmd = dram.CmdWR
		}
		if c.ch.CanIssue(cmd, 0, r.addr.Bank, r.addr.Row, c.cycle) {
			return r
		}
	}
	return nil
}

// reqLowerBound returns the earliest cycle at which any command could
// legally progress the request, from per-bank timing alone.
func reqLowerBound(c *Controller, r *request) int64 {
	open, nextACT, nextPRE, nextRD, nextWR := c.ch.BankTimes(0, r.addr.Bank)
	switch {
	case open == r.addr.Row:
		if r.write {
			return nextWR
		}
		return nextRD
	case open == -1:
		return nextACT
	default:
		return nextPRE
	}
}

// refNextWork is the reference per-request no-op-horizon scan.
func refNextWork(c *Controller) int64 {
	// States whose Tick mutates per-cycle state even without issuing:
	// a due refresh keeps closing banks, mitigation ops flip their
	// activated flag outside the command slot, and a throttling mechanism
	// is consulted whenever any request is queued.
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
	for _, q := range []*reqQueue{&c.readQ, &c.writeQ} {
		for r := q.head; r != nil; r = r.qnext {
			if b := reqLowerBound(c, r); b < w {
				w = b
			}
		}
	}
	if w <= c.cycle {
		w = c.cycle + 1
	}
	return w
}

// refWriteQueued is the reference write-backlog walk behind both
// read-after-write forwarding and write coalescing.
func refWriteQueued(c *Controller, a dram.Address) bool {
	for w := c.writeQ.head; w != nil; w = w.qnext {
		if w.addr == a {
			return true
		}
	}
	return false
}

// refDemotedReads counts the queued reads whose requester is blacklisted.
func refDemotedReads(c *Controller) int {
	n := 0
	for r := c.readQ.head; r != nil; r = r.qnext {
		if c.blissIsBlack(r.req) {
			n++
		}
	}
	return n
}

// refHitBanks reports, per bank, whether a request in q targets the
// bank's open row: the banks the reference first-ready scan can pick from.
func refHitBanks(c *Controller, q *reqQueue) []bool {
	hit := make([]bool, len(q.banks))
	for r := q.head; r != nil; r = r.qnext {
		if c.ch.OpenRow(0, r.addr.Bank) == r.addr.Row {
			hit[r.addr.Bank] = true
		}
	}
	return hit
}

// checkPicks asserts that every indexed pick equals its reference on the
// controller's current state. The first-ready picks are checked at the
// current cycle and at the next one, where the next Tick makes them, for
// every class filter the scheduler passes and for both exclusion shapes
// (none, and the oldest request's bank as a starving request claims it).
func checkPicks(t *testing.T, c *Controller, step int) {
	if got, want := c.NextWork(), refNextWork(c); got != want {
		t.Fatalf("step %d: NextWork = %d, reference %d", step, got, want)
	}
	if got, want := c.demotedReads, refDemotedReads(c); got != want {
		t.Fatalf("step %d: demoted-read census = %d, reference %d", step, got, want)
	}
	for _, q := range []*reqQueue{&c.readQ, &c.writeQ} {
		for b, want := range refHitBanks(c, q) {
			if got := q.hitMask[b>>6]>>(uint(b)&63)&1 == 1; got != want {
				t.Fatalf("step %d: bank %d hit-candidate bit = %v, reference %v", step, b, got, want)
			}
		}
	}
	for d := int64(0); d <= 1; d++ {
		c.cycle += d
		for _, q := range []*reqQueue{&c.readQ, &c.writeQ} {
			filters, excludes := []classFilter{{}}, []int{-1}
			if q.head != nil {
				excludes = append(excludes, q.head.addr.Bank)
			}
			if c.cfg.BLISS && q == &c.readQ { // writes are scheduled in one class
				filters = append(filters, classFilter{kind: classFavored}, classFilter{kind: classDemoted})
				if q.head != nil {
					filters = append(filters, classFilter{kind: classDemotedNotBank, notBank: q.head.addr.Bank})
				}
			}
			for _, ex := range excludes {
				for _, f := range filters {
					if got, want := c.firstReadyHit(q, ex, f), refFirstReadyHit(c, q, ex, f); got != want {
						t.Fatalf("step %d (+%d cycles): first-ready pick (exclude %d, filter %+v) = %v, reference %v",
							step, d, ex, f, pickName(got), pickName(want))
					}
				}
			}
		}
		c.cycle -= d
	}
}

func pickName(r *request) string {
	if r == nil {
		return "none"
	}
	return r.addr.String()
}

// eqCase is one cell of the sweep: a controller configuration, a
// geometry and a mechanism.
type eqCase struct {
	name string
	cfg  Config
	geo  dram.Geometry
	mech string
}

// runEquivalence drives one controller through steps randomized
// operations, checking every pick against the reference after each
// enqueue, each Tick and each idle skip.
func runEquivalence(t *testing.T, tc eqCase, seed int64, steps int) {
	t.Helper()
	ch, err := dram.NewChannel(tc.geo, dram.DDR4_2400(tc.geo.Rows))
	if err != nil {
		t.Fatal(err)
	}
	var m mitigation.Mechanism
	switch tc.mech {
	case "none":
		m = mitigation.NewNone()
	case "hammer":
		m = &hammerMech{}
	case "throttle":
		m = &eqMech{rng: rand.New(rand.NewSource(seed*31 + 7))}
	default:
		t.Fatalf("unknown mechanism %q", tc.mech)
	}
	c, err := New(tc.cfg, ch, m)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := dram.NewAddressMapper(tc.geo)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	banks := tc.geo.Banks()
	// A small hot row set concentrates traffic so row-hit chains,
	// starvation preemption, and BLISS streaks all trigger; writes use
	// few columns so they coalesce and forward to reads.
	hotRows := []int{100, 101, 102, 103, 200, 201}
	randomAddr := func(cols int) int64 {
		row := hotRows[rng.Intn(len(hotRows))]
		if rng.Intn(4) == 0 {
			row = 10 + rng.Intn(500)
		}
		return mapper.AddressOf(dram.Address{
			Bank: rng.Intn(banks),
			Row:  row,
			Col:  rng.Intn(cols),
		})
	}
	checkBacklog := func(step int, a dram.Address) {
		if got, want := c.writeQueued(a), refWriteQueued(c, a); got != want {
			t.Fatalf("step %d: write backlog holds %v = %v, reference %v", step, a, got, want)
		}
	}

	checkPicks(t, c, -1)
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(100); {
		case op < 45: // enqueue a read
			addr := randomAddr(16)
			checkBacklog(i, mapper.Map(mapper.LineAddress(addr)))
			c.EnqueueRead(rng.Intn(5)-1, addr, func() {}) // occasionally RequesterNone
		case op < 65: // enqueue a write
			addr := randomAddr(2)
			checkBacklog(i, mapper.Map(addr))
			c.EnqueueWrite(rng.Intn(5)-1, addr)
		case op < 97: // advance a random burst, now and then a long one
			n := 1 + rng.Intn(30)
			if op >= 93 {
				n = 1 + rng.Intn(600)
			}
			for ; n > 0; n-- {
				c.Tick()
				checkPicks(t, c, i)
			}
		default: // idle-skip to the horizon
			if k := c.NextWork() - c.Cycle() - 1; k > 0 {
				c.AdvanceIdle(k)
			}
		}
		checkPicks(t, c, i)
	}
	// Drain: the emptying queues are states of their own.
	for k := 0; k < 20_000 && c.PendingReads() > 0; k++ {
		c.Tick()
		checkPicks(t, c, steps)
	}
}

// TestSchedulerEquivalence sweeps scheduler configurations × geometries
// × mechanism pressures × seeds. In every cell each indexed pick must
// equal the reference pick after every step. The 128-bank geometry
// spreads the hit-candidate bitmask over two words.
func TestSchedulerEquivalence(t *testing.T) {
	smallQueues := Table6Config()
	smallQueues.ReadQueue = 8
	smallQueues.WriteQueue = 4
	blissSmall := blissConfig()
	blissSmall.ReadQueue, blissSmall.WriteQueue = smallQueues.ReadQueue, smallQueues.WriteQueue

	table6 := dram.Table6Geometry()
	wide := table6
	wide.BankGroups, wide.BanksPerGroup = 8, 16

	cases := []eqCase{
		{"default-none", Table6Config(), table6, "none"},
		{"default-throttle", Table6Config(), table6, "throttle"},
		{"bliss-hammer", blissConfig(), table6, "hammer"},
		{"bliss-throttle", blissConfig(), table6, "throttle"},
		{"smallqueues-throttle", smallQueues, table6, "throttle"},
		{"bliss-smallqueues-hammer", blissSmall, table6, "hammer"},
		{"128banks-hammer", Table6Config(), wide, "hammer"},
		{"128banks-bliss-throttle", blissConfig(), wide, "throttle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runEquivalence(t, tc, seed, 1000)
			}
		})
	}
}
