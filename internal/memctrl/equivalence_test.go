package memctrl

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/mitigation"
)

// This file certifies the indexed scheduler (queue.go buckets, hit
// chains, dense BLISS state) against O(queue) reference scans over the
// arrival-order queue lists. The references are pure functions of
// controller state: one controller is driven through randomized request
// streams, and after every step each indexed pick — first-ready row hit,
// write-backlog lookup, demoted-read census, hit-candidate banks — must
// equal the reference pick on the same state. The no-op horizon is held
// to what it promises instead: every Tick below NextWork leaves the
// controller as it was but for the throttle stall it predicted
// (tickChecked), and so does AdvanceIdle over the cycles it skips.
//
// The mechanisms are deliberately stateful (PRNG-driven throttling,
// victim refreshes), so the walks that consult them run only inside Tick
// and are never replayed here: the reference checks touch no mechanism.
// BlockHammer's horizon queries move no state, so the horizon checks ask
// it freely.

// eqMech is a stateful mechanism exercising every controller hook:
// random victim refreshes (mitigation queue pressure), random ACT
// throttling, and random admission denial. It reports no horizons, so its
// answers take the controller's per-cycle path.
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

// tickState is what a Tick below NextWork must leave as it was: the
// channel's command counts, the controller's statistics, both queue
// lengths, the return list, the mitigation queue with its marks, and the
// pending-refresh flag.
type tickState struct {
	cmds          dram.ChannelStats
	stats         Stats
	reads, writes int
	returns       []int64
	mitQ          []mitOp
	refPending    bool
}

func snapshotTick(c *Controller) tickState {
	s := tickState{cmds: c.ch.Stats, stats: c.Stats, reads: c.readQ.n, writes: c.writeQ.n,
		mitQ: slices.Clone(c.mitQ), refPending: c.refPending}
	s.stats.PerRequester = slices.Clone(c.Stats.PerRequester)
	for _, ev := range c.returns {
		s.returns = append(s.returns, ev.cycle)
	}
	return s
}

// idleCensus counts the Ticks below NextWork with requests queued, and
// those among them that counted a throttle stall.
type idleCensus struct{ queued, stalls int }

// tickChecked ticks the controller once. When the Tick's cycle lies below
// the NextWork read before it, the Tick must have changed nothing but
// ThrottleStallCycles, and that only by the stall idleStall predicted:
// the event engine skips exactly those Ticks, and AdvanceIdle replays the
// stall.
func tickChecked(t *testing.T, c *Controller, step int, census *idleCensus) {
	h := c.NextWork()
	if c.cycle+1 >= h {
		c.Tick()
		return
	}
	stall := c.idleStall()
	if c.readQ.n+c.writeQ.n > 0 {
		census.queued++
		if stall {
			census.stalls++
		}
	}
	before := snapshotTick(c)
	c.Tick()
	if want, after := idleAfter(before, 1, stall), snapshotTick(c); !reflect.DeepEqual(want, after) {
		t.Fatalf("step %d: the Tick at cycle %d, below NextWork %d, changed the controller beyond its predicted stall (%v)\n want  %+v\n after %+v",
			step, c.cycle, h, stall, want, after)
	}
}

// idleAfter returns the state k idle memory cycles leave after the
// snapshot before them: the same, but for k throttle stalls when stall
// holds.
func idleAfter(before tickState, k int64, stall bool) tickState {
	if stall {
		before.stats.ThrottleStallCycles += k
	}
	return before
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
// enqueue, each Tick and each idle skip, and every Tick and idle skip
// against the horizon NextWork answered before it.
func runEquivalence(t *testing.T, tc eqCase, seed int64, steps int, census *idleCensus) {
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
		if _, ok := m.(mitigation.ThrottleHorizon); ok {
			t.Fatal("eqMech reports horizons: its random answers must take the per-cycle path")
		}
	case "blockhammer":
		// A tiny HCfirst and refresh window blacklist hot rows within a
		// few ACTs and rotate epochs within the run.
		m, err = mitigation.NewBlockHammer(mitigation.Params{
			HCFirst: 16, Rows: tc.geo.Rows, Banks: tc.geo.Banks(),
			TRC: int64(ch.T.RC), TREFI: int64(ch.T.REFI), TREFW: 20_000, Seed: uint64(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
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
				tickChecked(t, c, i, census)
				checkPicks(t, c, i)
			}
		default: // idle-skip to the horizon
			if k := c.NextWork() - c.Cycle() - 1; k > 0 {
				stall, before := c.idleStall(), snapshotTick(c)
				c.AdvanceIdle(k)
				if want, after := idleAfter(before, k, stall), snapshotTick(c); !reflect.DeepEqual(want, after) {
					t.Fatalf("step %d: AdvanceIdle(%d) changed the controller beyond its predicted stalls (%v)\n want  %+v\n after %+v",
						i, k, stall, want, after)
				}
			}
		}
		checkPicks(t, c, i)
	}
	// Drain: the emptying queues are states of their own.
	for k := 0; k < 20_000 && c.PendingReads() > 0; k++ {
		tickChecked(t, c, steps, census)
		checkPicks(t, c, steps)
	}
}

// TestSchedulerEquivalence sweeps scheduler configurations × geometries
// × mechanism pressures × seeds. In every cell each indexed pick must
// equal the reference pick after every step, and every Tick below
// NextWork must be a no-op but for the throttle stall it predicted. The
// 128-bank geometry spreads the hit-candidate bitmask over two words.
// eqMech's cells answer the next cycle whenever requests are queued; the
// BlockHammer cells carry the throttle horizon, and under FR-FCFS must
// tick below it with requests queued and stalls predicted, or the check
// would be empty.
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
		{"default-blockhammer", Table6Config(), table6, "blockhammer"},
		{"smallqueues-blockhammer", smallQueues, table6, "blockhammer"},
		{"bliss-blockhammer", blissConfig(), table6, "blockhammer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var census idleCensus
			for seed := int64(1); seed <= 3; seed++ {
				runEquivalence(t, tc, seed, 1000, &census)
			}
			t.Logf("%d Ticks below NextWork with requests queued, %d predicted stalls", census.queued, census.stalls)
			if tc.mech == "blockhammer" && !tc.cfg.BLISS && census.stalls == 0 {
				t.Fatal("no Tick below the throttle horizon counted a stall")
			}
		})
	}
}
