package cpu

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// instantMem completes reads synchronously on the next Tick via the
// cache's own scheduling: it fires callbacks immediately.
type instantMem struct {
	reads int
	reqs  []int
}

func (m *instantMem) EnqueueRead(requester int, addr int64, onDone func()) bool {
	m.reads++
	m.reqs = append(m.reqs, requester)
	onDone()
	return true
}
func (m *instantMem) EnqueueWrite(requester int, addr int64) {}

func newLLC(t *testing.T, mem cache.Backend) *cache.Cache {
	t.Helper()
	llc, err := cache.New(cache.Config{
		SizeBytes: 1 << 20, Assoc: 8, LineBytes: 64, HitLatency: 2, MSHRs: 16,
	}, mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	return llc
}

func TestNewValidation(t *testing.T) {
	llc := newLLC(t, &instantMem{})
	tr := &trace.Trace{Records: []trace.Record{{Gap: 1, Addr: 0}}}
	if _, err := New(0, Config{}, tr, llc); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(0, Table6Config(), &trace.Trace{}, llc); err == nil {
		t.Error("empty trace accepted")
	}
	// Window slots are sequence numbers masked by size-1.
	if _, err := New(0, Config{IssueWidth: 4, WindowSize: 100}, tr, llc); err == nil {
		t.Error("window size 100 accepted")
	}
	// BulkWindow's closed form needs a window that holds an issue group.
	if _, err := New(0, Config{IssueWidth: 8, WindowSize: 4}, tr, llc); err == nil {
		t.Error("window smaller than the issue width accepted")
	}
}

func TestNonMemoryInstructionsRetireAtWidth(t *testing.T) {
	llc := newLLC(t, &instantMem{})
	// One record with a large gap: pure compute.
	tr := &trace.Trace{Records: []trace.Record{{Gap: 1 << 20, Addr: 0}}}
	c, err := New(0, Table6Config(), tr, llc)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 1000
	for i := 0; i < cycles; i++ {
		llc.Tick()
		c.Tick()
	}
	// Steady-state IPC must approach the issue width (4); the window
	// fill/drain transient costs a cycle.
	if ipc := float64(c.Retired) / cycles; ipc < 3.5 {
		t.Errorf("compute-only IPC = %v, want ≈4", ipc)
	}
}

func TestMemoryInstructionsBlockRetirement(t *testing.T) {
	mem := &instantMem{}
	llc := newLLC(t, mem)
	// Strided reads: every instruction is a distinct-line load.
	var recs []trace.Record
	for i := 0; i < 512; i++ {
		recs = append(recs, trace.Record{Gap: 0, Addr: int64(i) * 64})
	}
	tr := &trace.Trace{Records: recs}
	c, err := New(0, Table6Config(), tr, llc)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 2000
	for i := 0; i < cycles; i++ {
		llc.Tick()
		c.Tick()
	}
	if c.Retired == 0 {
		t.Fatal("nothing retired")
	}
	if mem.reads == 0 {
		t.Fatal("no memory traffic")
	}
	// Loads must not exceed issue width per cycle on average.
	if ipc := float64(c.Retired) / cycles; ipc > 4 {
		t.Errorf("IPC %v exceeds issue width", ipc)
	}
}

func TestWritesRetireImmediately(t *testing.T) {
	llc := newLLC(t, &instantMem{})
	var recs []trace.Record
	for i := 0; i < 64; i++ {
		recs = append(recs, trace.Record{Gap: 0, Addr: int64(i) * 64, Write: true})
	}
	c, err := New(0, Table6Config(), &trace.Trace{Records: recs}, llc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		llc.Tick()
		c.Tick()
	}
	if c.Retired < 64 {
		t.Errorf("only %d writes retired", c.Retired)
	}
}

func TestResetStatsKeepsPipeline(t *testing.T) {
	llc := newLLC(t, &instantMem{})
	tr := &trace.Trace{Records: []trace.Record{{Gap: 10, Addr: 64}}}
	c, err := New(0, Table6Config(), tr, llc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		llc.Tick()
		c.Tick()
	}
	c.ResetStats()
	if c.Retired != 0 {
		t.Error("stats not reset")
	}
	for i := 0; i < 100; i++ {
		llc.Tick()
		c.Tick()
	}
	if c.Retired == 0 {
		t.Error("core stopped after stats reset")
	}
}

func TestRequesterPropagation(t *testing.T) {
	mem := &instantMem{}
	llc := newLLC(t, mem)
	// Two distinct-line reads: one unattributed (the replaying core's ID
	// must substitute), one with an explicit source.
	tr := &trace.Trace{Records: []trace.Record{
		{Gap: 0, Addr: 0},
		{Gap: 0, Addr: 64 * 64, Requester: 7},
	}}
	c, err := New(3, Table6Config(), tr, llc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && len(mem.reqs) < 2; i++ {
		llc.Tick()
		c.Tick()
	}
	if len(mem.reqs) < 2 {
		t.Fatalf("backend saw %d requests, want 2", len(mem.reqs))
	}
	if mem.reqs[0] != 3 {
		t.Errorf("unattributed record reached the backend as requester %d, want the core ID 3", mem.reqs[0])
	}
	if mem.reqs[1] != 7 {
		t.Errorf("explicit record reached the backend as requester %d, want 7", mem.reqs[1])
	}
}

func TestPassOffsetAdvancesAddresses(t *testing.T) {
	mem := &instantMem{}
	llc := newLLC(t, mem)
	tr := &trace.Trace{
		Records:    []trace.Record{{Gap: 0, Addr: 0}, {Gap: 0, Addr: 64}},
		PassStride: 1 << 20,
		Span:       1 << 30,
	}
	c, err := New(0, Table6Config(), tr, llc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		llc.Tick()
		c.Tick()
	}
	// With pass shifting, replays touch fresh lines, so backend reads
	// keep growing well beyond the two distinct trace lines.
	if mem.reads < 10 {
		t.Errorf("backend reads = %d; pass shifting not applied", mem.reads)
	}
}

// heldMem accepts every read and completes it only on release.
type heldMem struct{ pending []func() }

func (m *heldMem) EnqueueRead(_ int, _ int64, onDone func()) bool {
	m.pending = append(m.pending, onDone)
	return true
}
func (m *heldMem) EnqueueWrite(int, int64) {}

func (m *heldMem) release() {
	for _, fn := range m.pending {
		fn()
	}
	m.pending = nil
}

// releaseAt completes the i-th held fill alone.
func (m *heldMem) releaseAt(i int) {
	fn := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	fn()
}

// coreState is everything Tick reads or writes on the core.
type coreState struct {
	Retired, SeqHead           int64
	InFlite                    int
	Loads                      []load // the in-flight load FIFO, front first
	LHead                      int
	Pos, GapLeft               int
	Pass, Offset               int64
	RecLoaded, Asleep, Refused bool
	Rec                        trace.Record
}

func stateOf(c *Core) coreState {
	s := coreState{
		Retired: c.Retired, SeqHead: c.seqHead,
		InFlite: c.inFlite,
		LHead:   c.lhead,
		Pos:     c.pos, GapLeft: c.gapLeft, Pass: c.pass, Offset: c.offset,
		RecLoaded: c.recLoaded, Asleep: c.asleep, Refused: c.refused, Rec: c.rec,
	}
	for i := 0; i < c.nloads; i++ {
		s.Loads = append(s.Loads, c.loads[(c.lhead+i)&c.mask])
	}
	return s
}

// pendingSeqs lists the sequence numbers of the core's in-flight loads
// whose data has not returned, oldest first, read from the whole FIFO.
func pendingSeqs(c *Core) []int64 {
	var seqs []int64
	for i := 0; i < c.nloads; i++ {
		if l := c.loads[(c.lhead+i)&c.mask]; !l.done && l.seq >= c.seqHead {
			seqs = append(seqs, l.seq)
		}
	}
	return seqs
}

// headCanRetire reports that the window's oldest instruction is complete.
func headCanRetire(c *Core) bool {
	return c.inFlite > 0 && !slices.Contains(pendingSeqs(c), c.seqHead)
}

// smallLLC is newLLC at 64 KB, for tests that build many cores.
func smallLLC(t *testing.T, mem cache.Backend) *cache.Cache {
	t.Helper()
	llc, err := cache.New(cache.Config{
		SizeBytes: 64 << 10, Assoc: 8, LineBytes: 64, HitLatency: 2, MSHRs: 16,
	}, mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	return llc
}

// TestAdvanceMatchesTicks checks the event engine's bulk replay against
// the exact path: for every n up to BulkWindow() (a few window lengths
// when it is unbounded), Advance(n) leaves a core exactly where n Ticks
// leave its twin over the same trace, asleep mark included, and a
// bounded window is tight: the Tick after it accesses the LLC. Each case
// ticks a core, holding and releasing fills, into one replayable state:
// the oldest pending load at the window's head, in its middle or near
// its tail, with the gap left above or below the slots that can still
// fill before that load blocks the window, a gap left that is a multiple
// of the issue width, a write inside the window, and gap runs with no
// load pending.
func TestAdvanceMatchesTicks(t *testing.T) {
	const line = 64 * 64
	loadRec := func(gap, l int) trace.Record { return trace.Record{Gap: gap, Addr: int64(l) * line} }
	writeRec := func(gap, l int) trace.Record { return trace.Record{Gap: gap, Addr: int64(l) * line, Write: true} }
	// room is how many more instructions can issue before the oldest
	// pending load blocks the window, as long as nothing completes.
	room := func(c *Core) int {
		p := pendingSeqs(c)
		if len(p) == 0 {
			return 1 << 30
		}
		return len(c.loads) - c.inFlite + int(p[0]-c.seqHead)
	}
	ahead := func(c *Core) int { // instructions ahead of the oldest pending load
		return int(pendingSeqs(c)[0] - c.seqHead)
	}
	cases := []struct {
		name string
		recs []trace.Record
		// hold ticks until it holds; release, when set, then releases the
		// oldest held fill and ticks until ready holds.
		hold, ready func(c *Core) bool
		release     bool
	}{
		{name: "head, gap above room",
			recs:  []trace.Record{loadRec(0, 0), loadRec(2000, 1)},
			ready: func(c *Core) bool { return len(pendingSeqs(c)) == 1 && ahead(c) == 0 && c.gapLeft >= room(c) }},
		{name: "head, blocked",
			recs:  []trace.Record{loadRec(0, 0), loadRec(2000, 1)},
			ready: func(c *Core) bool { return len(pendingSeqs(c)) == 1 && c.inFlite == len(c.loads) && ahead(c) == 0 }},
		{name: "head, gap below room",
			recs: []trace.Record{loadRec(0, 0), loadRec(60, 1)},
			ready: func(c *Core) bool {
				return len(pendingSeqs(c)) == 1 && ahead(c) == 0 && c.gapLeft < room(c) && c.gapLeft%4 != 0
			}},
		{name: "head, gap one short of a multiple of the width",
			recs:  []trace.Record{loadRec(0, 0), loadRec(62, 1)},
			ready: func(c *Core) bool { return len(pendingSeqs(c)) == 1 && ahead(c) == 0 && c.gapLeft%4 == 3 }},
		{name: "head, gap a multiple of the width",
			recs: []trace.Record{loadRec(0, 0), loadRec(67, 1)},
			ready: func(c *Core) bool {
				return len(pendingSeqs(c)) == 1 && ahead(c) == 0 && c.gapLeft > 0 && c.gapLeft%4 == 0
			}},
		{name: "middle, gap above room",
			recs:    []trace.Record{loadRec(0, 0), loadRec(30, 1), loadRec(2000, 2)},
			hold:    func(c *Core) bool { return c.inFlite >= 100 },
			release: true,
			ready: func(c *Core) bool {
				return len(pendingSeqs(c)) == 1 && ahead(c) > 8 && ahead(c) < c.inFlite/2 && c.gapLeft >= room(c)
			}},
		{name: "middle, gap below room",
			recs:    []trace.Record{loadRec(0, 0), loadRec(30, 1), loadRec(90, 2)},
			hold:    func(c *Core) bool { return c.inFlite >= 100 },
			release: true,
			ready: func(c *Core) bool {
				return len(pendingSeqs(c)) == 1 && ahead(c) > 8 && ahead(c) < c.inFlite/2 && c.gapLeft < room(c)
			}},
		{name: "tail, gap above room",
			recs:    []trace.Record{loadRec(0, 0), loadRec(120, 1), loadRec(2000, 2)},
			hold:    func(c *Core) bool { return c.blocked() },
			release: true,
			ready:   func(c *Core) bool { return len(pendingSeqs(c)) == 1 && c.inFlite-ahead(c) <= 8 && c.gapLeft >= room(c) }},
		{name: "tail, gap below room",
			recs:    []trace.Record{loadRec(0, 0), loadRec(120, 1), loadRec(50, 2)},
			hold:    func(c *Core) bool { return c.blocked() },
			release: true,
			ready:   func(c *Core) bool { return len(pendingSeqs(c)) == 1 && c.inFlite-ahead(c) <= 8 && c.gapLeft < room(c) }},
		{name: "several pending behind the head",
			recs:  []trace.Record{loadRec(0, 0), loadRec(20, 1), loadRec(40, 2), loadRec(2000, 3)},
			ready: func(c *Core) bool { return len(pendingSeqs(c)) == 3 && ahead(c) == 0 && c.gapLeft >= room(c) }},
		{name: "write inside the window",
			recs:    []trace.Record{loadRec(0, 0), writeRec(5, 3), loadRec(10, 1), loadRec(2000, 2)},
			hold:    func(c *Core) bool { return c.blocked() },
			release: true,
			ready:   func(c *Core) bool { return len(pendingSeqs(c)) == 1 && ahead(c) > 8 && c.gapLeft >= room(c) }},
		{name: "gap run",
			recs:    []trace.Record{loadRec(0, 0), loadRec(2000, 1)},
			hold:    func(c *Core) bool { return len(pendingSeqs(c)) == 1 },
			release: true,
			ready:   func(c *Core) bool { return len(pendingSeqs(c)) == 0 && c.gapLeft >= 4 && c.gapLeft%4 != 0 }},
		{name: "gap run, a multiple of the width",
			recs:    []trace.Record{loadRec(0, 0), loadRec(303, 1)},
			hold:    func(c *Core) bool { return len(pendingSeqs(c)) == 1 },
			release: true,
			ready:   func(c *Core) bool { return len(pendingSeqs(c)) == 0 && c.gapLeft >= 4 && c.gapLeft%4 == 0 }},
	}
	const blockedCap = 4 * 128
	for _, tc := range cases {
		tr := &trace.Trace{Records: tc.recs}
		// build makes a core and ticks it into the state under test; twins
		// built by the same calls are identical.
		build := func() (*Core, *cache.Cache) {
			mem := &heldMem{}
			llc := smallLLC(t, mem)
			c, err := New(0, Table6Config(), tr, llc)
			if err != nil {
				t.Fatal(err)
			}
			until := func(cond func(c *Core) bool, what string) {
				for i := 0; !cond(c); i++ {
					if i == 10_000 {
						t.Fatalf("%s: the core never reached the %s state: %+v", tc.name, what, stateOf(c))
					}
					llc.Tick()
					c.Tick()
				}
			}
			if tc.hold != nil {
				until(tc.hold, "held")
			}
			if tc.release {
				mem.releaseAt(0)
			}
			until(func(c *Core) bool { return c.BulkWindow() > 0 && !llc.HitsPending() && tc.ready(c) }, "ready")
			return c, llc
		}
		exact, llc := build()
		window := min(exact.BulkWindow(), blockedCap)
		t.Logf("%s: window %d from %+v", tc.name, window, stateOf(exact))
		for n := int64(1); n <= window; n++ {
			llc.Tick()
			exact.Tick()
			bulk, _ := build()
			bulk.Advance(n)
			if got, want := stateOf(bulk), stateOf(exact); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, n=%d: Advance left\n%+v\nTicks left\n%+v", tc.name, n, got, want)
			}
		}
		if window < blockedCap {
			before := llc.Stats.Accesses
			llc.Tick()
			exact.Tick()
			if llc.Stats.Accesses == before {
				t.Fatalf("%s: no access on the Tick after a window of %d cycles", tc.name, window)
			}
		}
	}
}

// TestAsleepMark drives a core through held and released fills and checks
// the asleep mark at every step: an asleep core is blocked, a Tick on an
// asleep core changes nothing, and every load completion clears the mark.
// Fills are released oldest first (usually the head load's), newest first
// (a slot behind the head) or all at once; repeated lines within a pass
// also complete loads from the LLC's hit ring and through merged MSHRs.
func TestAsleepMark(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 64; i++ {
		recs = append(recs, trace.Record{Gap: i % 7 * 5, Addr: int64(i%24) * 64 * 64, Write: i%11 == 3})
	}
	tr := &trace.Trace{Records: recs, PassStride: 1 << 20, Span: 1 << 30}
	mem := &heldMem{}
	llc := newLLC(t, mem)
	c, err := New(0, Table6Config(), tr, llc)
	if err != nil {
		t.Fatal(err)
	}
	completions := 0
	for p, fn := range c.complete {
		c.complete[p] = func() {
			fn()
			completions++
			if c.asleep {
				t.Fatalf("completion of FIFO position %d left the core asleep", p)
			}
		}
	}
	check := func(step int, when string) {
		if c.asleep && !(c.inFlite == len(c.loads) && c.inFlite > 0 && !headCanRetire(c)) {
			t.Fatalf("step %d, %s: asleep but not blocked: %+v", step, when, stateOf(c))
		}
	}
	asleepTicks := 0
	for step := 0; step < 20_000; step++ {
		llc.Tick()
		check(step, "after the LLC tick")
		if c.asleep {
			asleepTicks++
			before := stateOf(c)
			c.Tick()
			if after := stateOf(c); !reflect.DeepEqual(before, after) {
				t.Fatalf("step %d: Tick on an asleep core changed it\n%+v\n%+v", step, before, after)
			}
		} else {
			c.Tick()
		}
		check(step, "after Tick")
		switch {
		case len(mem.pending) == 0:
		case step%97 == 0:
			mem.release()
		case step%13 == 0:
			mem.releaseAt(len(mem.pending) - 1)
		case step%29 == 0:
			mem.releaseAt(0)
		}
		check(step, "after releases")
	}
	if asleepTicks == 0 || completions == 0 || c.pass == 0 {
		t.Fatalf("the core never slept or never completed a load: %d asleep ticks, %d completions, pass %d",
			asleepTicks, completions, c.pass)
	}
	t.Logf("%d asleep ticks, %d completions, %d passes", asleepTicks, completions, c.pass)
}

// gatedMem is heldMem behind a gate: while shut, it refuses every read
// and counts the refusals.
type gatedMem struct {
	heldMem
	shut    bool
	refused int
}

func (m *gatedMem) EnqueueRead(req int, addr int64, onDone func()) bool {
	if m.shut {
		m.refused++
		return false
	}
	return m.heldMem.EnqueueRead(req, addr, onDone)
}

// TestRefusedMark drives a core against a memory side whose gate refuses
// reads while shut, through an LLC of four MSHRs, and checks the refused
// mark at every step: a refused core is not asleep, its window head
// cannot retire and it offers no jump; while neither the gate nor the
// LLC's Changes has moved since the refusal, a Tick on it changes
// nothing on the core and repeats the refusal exactly (it reaches the
// backend when the first one did, and not when every MSHR was in
// flight); and every load completion clears the mark.
func TestRefusedMark(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 64; i++ {
		recs = append(recs, trace.Record{Gap: i % 5 * 3, Addr: int64(i%40) * 64 * 64, Write: i%9 == 4})
	}
	tr := &trace.Trace{Records: recs, PassStride: 1 << 20, Span: 1 << 30}
	mem := &gatedMem{}
	llc, err := cache.New(cache.Config{
		SizeBytes: 1 << 20, Assoc: 8, LineBytes: 64, HitLatency: 2, MSHRs: 4,
	}, mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(0, Table6Config(), tr, llc)
	if err != nil {
		t.Fatal(err)
	}
	for p, fn := range c.complete {
		c.complete[p] = func() {
			fn()
			if c.refused {
				t.Fatalf("completion of FIFO position %d left the core refused", p)
			}
		}
	}
	check := func(step int, when string) {
		if !c.refused {
			return
		}
		if c.asleep {
			t.Fatalf("step %d, %s: refused and asleep", step, when)
		}
		if headCanRetire(c) {
			t.Fatalf("step %d, %s: refused with a head that can retire: %+v", step, when, stateOf(c))
		}
		if w := c.BulkWindow(); w != 0 {
			t.Fatalf("step %d, %s: refused core offers a jump of %d cycles", step, when, w)
		}
	}
	// The memory side when the core was last refused, and whether that
	// refusal reached the backend.
	var shut, reached bool
	var changes uint64
	repeats := map[bool]int{}
	for step := 0; step < 20_000; step++ {
		llc.Tick()
		check(step, "after the LLC tick")
		n := mem.refused
		if c.refused && mem.shut == shut && llc.Changes() == changes {
			before := stateOf(c)
			c.Tick()
			if after := stateOf(c); !reflect.DeepEqual(before, after) || !c.refused {
				t.Fatalf("step %d: Tick on a refused core changed it\n%+v\n%+v", step, before, after)
			}
			want := 0
			if reached {
				want = 1
			}
			if got := mem.refused - n; got != want {
				t.Fatalf("step %d: the repeated refusal reached the backend %d times, want %d", step, got, want)
			}
			repeats[reached]++
		} else {
			c.Tick()
			shut, reached, changes = mem.shut, mem.refused > n, llc.Changes()
		}
		check(step, "after Tick")
		switch {
		case step%61 == 0:
			mem.shut = !mem.shut
		case len(mem.pending) == 0:
		case step%97 == 0:
			mem.release()
		case step%13 == 0:
			mem.releaseAt(len(mem.pending) - 1)
		case step%29 == 0:
			mem.releaseAt(0)
		}
		check(step, "after the memory side moved")
	}
	if repeats[true] == 0 || repeats[false] == 0 {
		t.Fatalf("refusals were not repeated both at the backend and at the MSHRs: %v", repeats)
	}
	t.Logf("repeated refusals: %d at the backend, %d at the MSHRs", repeats[true], repeats[false])
}

// refCore is the instruction window the core's arithmetic replaced, kept
// as its oracle: a ring of done flags, one per window slot, indexed by
// sequence number modulo the window size, retired and issued one
// instruction at a time.
type refCore struct {
	ID  int
	cfg Config

	trc    *trace.Trace
	pos    int
	pass   int64
	offset int64

	done    []bool
	mask    int64
	seqHead int64
	inFlite int

	gapLeft   int
	recLoaded bool
	rec       trace.Record

	outstanding int
	complete    []func()
	asleep      bool
	refused     bool

	llc *cache.Cache

	Retired int64
}

func newRefCore(id int, cfg Config, trc *trace.Trace, llc *cache.Cache) *refCore {
	c := &refCore{
		ID:       id,
		cfg:      cfg,
		trc:      trc,
		done:     make([]bool, cfg.WindowSize),
		mask:     int64(cfg.WindowSize - 1),
		complete: make([]func(), cfg.WindowSize),
		llc:      llc,
	}
	for s := range c.complete {
		c.complete[s] = func() { c.done[s] = true; c.outstanding--; c.asleep, c.refused = false, false }
	}
	return c
}

func (c *refCore) slot(seq int64) int { return int(seq & c.mask) }

func (c *refCore) requester() int {
	if c.rec.Requester != 0 {
		return c.rec.Requester
	}
	return c.ID
}

func (c *refCore) blocked() bool {
	return c.inFlite == len(c.done) && !c.done[c.slot(c.seqHead)]
}

// pending lists the sequence numbers of the window's incomplete
// instructions, oldest first: only a load can be incomplete.
func (c *refCore) pending() []int64 {
	var seqs []int64
	for i := int64(0); i < int64(c.inFlite); i++ {
		if !c.done[c.slot(c.seqHead+i)] {
			seqs = append(seqs, c.seqHead+i)
		}
	}
	return seqs
}

func (c *refCore) Tick() {
	// Retire.
	for i := 0; i < c.cfg.IssueWidth && c.inFlite > 0; i++ {
		s := c.slot(c.seqHead)
		if !c.done[s] {
			break
		}
		c.done[s] = false
		c.seqHead++
		c.inFlite--
		c.Retired++
	}

	// Issue.
	issued := 0
	refused := false
	for issued < c.cfg.IssueWidth && c.inFlite < len(c.done) {
		if !c.recLoaded {
			c.rec = c.trc.Records[c.pos]
			c.rec.Addr += c.offset
			c.pos++
			if c.pos == len(c.trc.Records) {
				c.pos = 0
				c.pass++
				c.offset = c.trc.PassOffset(c.pass)
			}
			c.gapLeft = c.rec.Gap
			c.recLoaded = true
		}
		if c.gapLeft > 0 {
			c.done[c.slot(c.seqHead+int64(c.inFlite))] = true
			c.inFlite++
			c.gapLeft--
			issued++
			continue
		}
		req := c.requester()
		if c.rec.Write {
			if !c.llc.Write(req, c.rec.Addr) {
				refused = true
				break
			}
			c.done[c.slot(c.seqHead+int64(c.inFlite))] = true
			c.inFlite++
		} else {
			seq := c.seqHead + int64(c.inFlite)
			s := c.slot(seq)
			c.done[s] = false
			var ok bool
			if c.rec.NoCache {
				ok = c.llc.ReadUncached(req, c.rec.Addr, c.complete[s])
			} else {
				ok = c.llc.Read(req, c.rec.Addr, c.complete[s])
			}
			if !ok {
				refused = true
				break
			}
			c.outstanding++
			c.inFlite++
		}
		c.recLoaded = false
		issued++
	}
	c.asleep = c.blocked()
	c.refused = refused && (c.inFlite == 0 || !c.done[c.slot(c.seqHead)])
}

// lockstepState is what the core and the reference core must agree on.
type lockstepState struct {
	Retired, SeqHead           int64
	InFlite, Outstanding       int
	GapLeft, Pos               int
	Pass                       int64
	RecLoaded, Asleep, Refused bool
	Rec                        trace.Record
	Pending                    []int64
}

func (c *Core) lockstep() lockstepState {
	return lockstepState{c.Retired, c.seqHead, c.inFlite, len(pendingSeqs(c)), c.gapLeft, c.pos, c.pass,
		c.recLoaded, c.asleep, c.refused, c.rec, pendingSeqs(c)}
}

func (c *refCore) lockstep() lockstepState {
	return lockstepState{c.Retired, c.seqHead, c.inFlite, c.outstanding, c.gapLeft, c.pos, c.pass,
		c.recLoaded, c.asleep, c.refused, c.rec, c.pending()}
}

// TestCoreMatchesReference drives the core and the reference core in
// lockstep over seeded random traces (gaps of 0 to 300 instructions,
// writes, uncached loads, lines repeated within a pass, several passes),
// each through its own LLC in front of its own gated memory. Both memory
// sides are moved alike: the gate opens and shuts, and held fills are
// released oldest first, newest first, at random or all at once. Every
// few cycles, where the core offers a jump and no hit is pending, the
// core takes Advance(k) for up to BulkWindow() cycles while the reference
// ticks k times. After every step the two must agree on the retired
// count, the window, the record position, both marks and the set of
// pending loads, and their LLCs and memories on what they saw.
func TestCoreMatchesReference(t *testing.T) {
	var asleep, refused, advanced, advancedPending, passes int
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x10c))
		recs := make([]trace.Record, 8+rng.IntN(40))
		for i := range recs {
			gap := rng.IntN(9)
			switch rng.IntN(4) {
			case 0:
				gap = 4 * rng.IntN(76)
			case 1:
				gap = rng.IntN(301)
			}
			recs[i] = trace.Record{Gap: gap, Addr: int64(rng.IntN(24)) * 64 * 64}
			switch rng.IntN(8) {
			case 0:
				recs[i].Write = true
			case 1:
				recs[i].NoCache = true
			}
		}
		tr := &trace.Trace{Records: recs, PassStride: 1 << 20, Span: 1 << 30}
		mshrs := 4 + 12*rng.IntN(2)
		side := func() (*gatedMem, *cache.Cache) {
			mem := &gatedMem{}
			llc, err := cache.New(cache.Config{
				SizeBytes: 64 << 10, Assoc: 8, LineBytes: 64, HitLatency: 2, MSHRs: mshrs,
			}, mem, 1)
			if err != nil {
				t.Fatal(err)
			}
			return mem, llc
		}
		mem, llc := side()
		refMem, refLLC := side()
		c, err := New(0, Table6Config(), tr, llc)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCore(0, Table6Config(), tr, refLLC)
		check := func(step int, when string) {
			if got, want := c.lockstep(), ref.lockstep(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, step %d, %s: the core diverged from the reference\n core %+v\n  ref %+v", seed, step, when, got, want)
			}
			if llc.Stats != refLLC.Stats || len(mem.pending) != len(refMem.pending) || mem.refused != refMem.refused {
				t.Fatalf("seed %d, step %d, %s: the memory sides diverged", seed, step, when)
			}
		}
		for step := 0; step < 4_000; step++ {
			if w := c.BulkWindow(); w > 0 && rng.IntN(3) == 0 && !llc.HitsPending() {
				k := 1 + rng.Int64N(min(w, 600))
				if len(pendingSeqs(c)) > 0 {
					advancedPending++
				}
				advanced++
				c.Advance(k)
				for i := int64(0); i < k; i++ {
					refLLC.Tick()
					ref.Tick()
				}
				check(step, "after Advance")
			} else {
				llc.Tick()
				refLLC.Tick()
				check(step, "after the LLC tick")
				c.Tick()
				ref.Tick()
				check(step, "after Tick")
			}
			if c.asleep {
				asleep++
			}
			if c.refused {
				refused++
			}
			switch r := rng.IntN(40); {
			case r == 0:
				mem.shut = !mem.shut
				refMem.shut = mem.shut
			case len(mem.pending) == 0:
			case r < 4:
				mem.releaseAt(0)
				refMem.releaseAt(0)
			case r < 7:
				mem.releaseAt(len(mem.pending) - 1)
				refMem.releaseAt(len(refMem.pending) - 1)
			case r < 9:
				i := rng.IntN(len(mem.pending))
				mem.releaseAt(i)
				refMem.releaseAt(i)
			case r == 9:
				mem.release()
				refMem.release()
			}
			check(step, "after the memory side moved")
		}
		passes += int(c.pass)
	}
	t.Logf("%d asleep and %d refused steps, %d jumps (%d with a load pending), %d passes",
		asleep, refused, advanced, advancedPending, passes)
	if asleep == 0 || refused == 0 || advancedPending == 0 || passes < 40 {
		t.Fatal("the traces did not drive the core through sleep, refusal, jumps with a load pending and wrapped passes")
	}
}
