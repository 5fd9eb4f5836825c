package cpu

import (
	"reflect"
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
	Retired, SeqHead     int64
	InFlite, Outstanding int
	Done                 []bool
	Pos, GapLeft         int
	Pass, Offset         int64
	RecLoaded, Asleep    bool
	Rec                  trace.Record
}

func stateOf(c *Core) coreState {
	return coreState{
		Retired: c.Retired, SeqHead: c.seqHead,
		InFlite: c.inFlite, Outstanding: c.outstanding,
		Done: append([]bool(nil), c.done...),
		Pos:  c.pos, GapLeft: c.gapLeft, Pass: c.pass, Offset: c.offset,
		RecLoaded: c.recLoaded, Asleep: c.asleep, Rec: c.rec,
	}
}

// TestAdvanceMatchesTicks checks the event engine's bulk replay against
// the exact path: for every n up to BulkWindow(), Advance(n) leaves a
// core exactly where n Ticks leave its twin over the same trace. One
// load with a long gap behind it drives the core through both
// replayable states: blocked while the load's fill is withheld (the
// window fills with completed gap instructions behind it), then a gap
// run once the fill lands.
func TestAdvanceMatchesTicks(t *testing.T) {
	tr := &trace.Trace{Records: []trace.Record{
		{Gap: 0, Addr: 0},
		{Gap: 2000, Addr: 64 * 64},
	}}
	// build makes a core and ticks it into the state under test; twins
	// built by the same calls are identical.
	build := func(t *testing.T, release bool) (*Core, *cache.Cache) {
		mem := &heldMem{}
		llc := newLLC(t, mem)
		c, err := New(0, Table6Config(), tr, llc)
		if err != nil {
			t.Fatal(err)
		}
		for c.BulkWindow() == 0 {
			llc.Tick()
			c.Tick()
		}
		if release {
			mem.release()
			for c.BulkWindow() == 0 {
				llc.Tick()
				c.Tick()
			}
		}
		return c, llc
	}
	// A blocked core's window is unbounded; a few window lengths of stall
	// stand for it.
	const blockedCap = 4 * 128
	for _, tc := range []struct {
		name    string
		release bool // the fill lands: a gap run, else blocked
	}{
		{"blocked", false},
		{"gap run", true},
	} {
		c, _ := build(t, tc.release)
		window := min(c.BulkWindow(), blockedCap)
		if tc.release != (c.outstanding == 0) {
			t.Fatalf("%s: setup reached the wrong state (outstanding %d)", tc.name, c.outstanding)
		}
		for n := int64(1); n <= window; n++ {
			bulk, _ := build(t, tc.release)
			exact, llc := build(t, tc.release)
			bulk.Advance(n)
			for i := int64(0); i < n; i++ {
				llc.Tick()
				exact.Tick()
			}
			if got, want := stateOf(bulk), stateOf(exact); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, n=%d: Advance left\n%+v\nTicks left\n%+v", tc.name, n, got, want)
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
	for s, fn := range c.complete {
		c.complete[s] = func() {
			fn()
			completions++
			if c.asleep {
				t.Fatalf("completion of slot %d left the core asleep", s)
			}
		}
	}
	check := func(step int, when string) {
		if c.asleep && !c.blocked() {
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
