package cache

import (
	"math/rand"
	"testing"
)

// TestMSHRTableMatchesMap drives the open-addressed MSHR index and a Go
// map through the same random put/remove/get sequence, on clustered line
// addresses that force long probe runs and wrap-around deletions.
func TestMSHRTableMatchesMap(t *testing.T) {
	const n = 16
	tab := newMSHRTable(n)
	want := map[int64]*mshr{}
	rng := rand.New(rand.NewSource(3))
	var live []int64
	for step := 0; step < 20_000; step++ {
		la := int64(rng.Intn(64)) * 32
		switch {
		case len(live) < n && want[la] == nil && rng.Intn(2) == 0:
			m := &mshr{lineAddr: la}
			tab.put(m)
			want[la] = m
			live = append(live, la)
		case len(live) > 0 && rng.Intn(2) == 0:
			i := rng.Intn(len(live))
			tab.remove(live[i])
			delete(want, live[i])
			live = append(live[:i], live[i+1:]...)
		}
		if got := tab.get(la); got != want[la] {
			t.Fatalf("step %d: get(%d) = %v, want %v", step, la, got, want[la])
		}
	}
}

// fakeMem records backend traffic (with requester attribution) and
// completes reads on demand.
type fakeMem struct {
	reads     []int64
	writes    []int64
	readReqs  []int
	writeReqs []int
	pending   []func()
	rejectRd  bool
}

func (f *fakeMem) EnqueueRead(requester int, addr int64, onDone func()) bool {
	if f.rejectRd {
		return false
	}
	f.reads = append(f.reads, addr)
	f.readReqs = append(f.readReqs, requester)
	f.pending = append(f.pending, onDone)
	return true
}

func (f *fakeMem) EnqueueWrite(requester int, addr int64) {
	f.writes = append(f.writes, addr)
	f.writeReqs = append(f.writeReqs, requester)
}

func (f *fakeMem) completeAll() {
	for _, fn := range f.pending {
		fn()
	}
	f.pending = nil
}

func smallConfig() Config {
	return Config{SizeBytes: 8192, Assoc: 2, LineBytes: 64, HitLatency: 3, MSHRs: 4}
}

func newCache(t *testing.T, mem *fakeMem) *Cache {
	t.Helper()
	c, err := New(smallConfig(), mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	mem := &fakeMem{}
	if _, err := New(Config{}, mem, 1); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(Config{SizeBytes: 1000, Assoc: 3, LineBytes: 64}, mem, 1); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
	if _, err := New(Config{SizeBytes: 32768, Assoc: 256, LineBytes: 64}, mem, 1); err == nil {
		t.Error("256-way associativity accepted; an LRU stack entry holds at most 255 ways")
	}
	if _, err := New(Config{SizeBytes: 2, Assoc: 1, LineBytes: 2}, mem, 1); err == nil {
		t.Error("a 2-byte set span accepted; a line's tag needs two bits of it")
	}
	// The widest set New accepts evicts its LRU line once every way is
	// full.
	c, err := New(Config{SizeBytes: maxAssoc * 64, Assoc: maxAssoc, LineBytes: 64}, mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i <= maxAssoc; i++ {
		c.Write(0, i*64)
		mem.completeAll()
	}
	if len(mem.writes) != 1 || mem.writes[0] != 0 {
		t.Fatalf("writebacks after %d fills of a %d-way set = %v, want [0]", maxAssoc+1, maxAssoc, mem.writes)
	}
}

func TestMissThenHit(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)

	done := false
	if !c.Read(0, 0x1000, func() { done = true }) {
		t.Fatal("read rejected")
	}
	if len(mem.reads) != 1 {
		t.Fatalf("backend reads = %d", len(mem.reads))
	}
	mem.completeAll()
	if !done {
		t.Fatal("miss callback not fired")
	}

	// Second access: hit, served after HitLatency ticks, no new traffic.
	hit := false
	if !c.Read(0, 0x1000, func() { hit = true }) {
		t.Fatal("hit rejected")
	}
	if len(mem.reads) != 1 {
		t.Error("hit generated backend traffic")
	}
	for i := 0; i < smallConfig().HitLatency+1; i++ {
		c.Tick()
	}
	if !hit {
		t.Fatal("hit callback not fired after HitLatency")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestMSHRMerging(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)
	fired := 0
	c.Read(0, 0x2000, func() { fired++ })
	c.Read(1, 0x2010, func() { fired++ }) // same line
	if len(mem.reads) != 1 {
		t.Fatalf("merged miss issued %d reads", len(mem.reads))
	}
	if c.Stats.MSHRMerges != 1 {
		t.Errorf("merges = %d", c.Stats.MSHRMerges)
	}
	mem.completeAll()
	if fired != 2 {
		t.Fatalf("fired = %d, want both waiters", fired)
	}
}

func TestMSHRLimitRejects(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)
	for i := 0; i < 4; i++ {
		if !c.Read(0, int64(i)*64, func() {}) {
			t.Fatalf("read %d rejected below MSHR limit", i)
		}
	}
	if c.Read(0, 5*64, func() {}) {
		t.Error("read accepted beyond MSHR limit")
	}
	mem.completeAll()
	if !c.Read(0, 6*64, func() {}) {
		t.Error("read rejected after MSHRs freed")
	}
}

func TestBackendRejectionPropagates(t *testing.T) {
	mem := &fakeMem{rejectRd: true}
	c := newCache(t, mem)
	if c.Read(0, 0, func() {}) {
		t.Error("read accepted when the controller queue is full")
	}
	mem.rejectRd = false
	if !c.Read(0, 0, func() {}) {
		t.Error("retry rejected")
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)

	// Write miss: allocate (fetch) and mark dirty.
	if !c.Write(0, 0x40) {
		t.Fatal("write rejected")
	}
	if len(mem.reads) != 1 {
		t.Fatalf("write-allocate issued %d fetches", len(mem.reads))
	}
	mem.completeAll()

	// Evict the dirty line by filling its set (2-way: two more lines
	// mapping to set of 0x40). Set count = 8192/64/2 = 64 sets; lines
	// mapping to set 1: addresses 64 + k*64*64.
	conflict1 := int64(0x40 + 64*64)
	conflict2 := int64(0x40 + 2*64*64)
	c.Read(0, conflict1, func() {})
	mem.completeAll()
	c.Read(0, conflict2, func() {})
	mem.completeAll()
	if len(mem.writes) != 1 || mem.writes[0] != 0x40 {
		t.Fatalf("writebacks = %v, want [0x40]", mem.writes)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writeback stat = %d", c.Stats.Writebacks)
	}
}

func TestLRUKeepsHotLine(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)
	// Fill a 2-way set with lines A and B; touch A; add C. B must be the
	// victim, A must survive.
	a := int64(0)
	bAddr := int64(64 * 64)
	cAddr := int64(2 * 64 * 64)
	c.Read(0, a, func() {})
	mem.completeAll()
	c.Read(0, bAddr, func() {})
	mem.completeAll()
	c.Read(0, a, func() {}) // touch A
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	c.Read(0, cAddr, func() {})
	mem.completeAll()
	reads := len(mem.reads)
	c.Read(0, a, func() {}) // must still hit
	if len(mem.reads) != reads {
		t.Error("LRU evicted the recently used line")
	}
}

func TestRequesterAttribution(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)

	// Miss: the backend read carries the allocating requester.
	if !c.Read(5, 0x40, func() {}) {
		t.Fatal("read rejected")
	}
	if len(mem.readReqs) != 1 || mem.readReqs[0] != 5 {
		t.Fatalf("miss requesters = %v, want [5]", mem.readReqs)
	}
	mem.completeAll()

	// Dirty the line as requester 1, then evict it with fills from
	// requester 2: the writeback is attributed to the evicting requester.
	if !c.Write(1, 0x40) {
		t.Fatal("write rejected")
	}
	c.Read(2, 0x40+64*64, func() {})
	mem.completeAll()
	c.Read(2, 0x40+2*64*64, func() {})
	mem.completeAll()
	if len(mem.writeReqs) != 1 || mem.writeReqs[0] != 2 {
		t.Fatalf("writeback requesters = %v, want [2]", mem.writeReqs)
	}

	// Flush+load: the uncached read and its flush writeback both carry
	// the flushing requester.
	if !c.Write(1, 0x80) {
		t.Fatal("write rejected")
	}
	mem.completeAll() // line now cached dirty
	if !c.ReadUncached(4, 0x80, func() {}) {
		t.Fatal("uncached read rejected")
	}
	last := len(mem.readReqs) - 1
	if mem.readReqs[last] != 4 {
		t.Errorf("uncached read requester = %d, want 4", mem.readReqs[last])
	}
	if got := mem.writeReqs[len(mem.writeReqs)-1]; got != 4 {
		t.Errorf("flush writeback requester = %d, want 4", got)
	}
}

func TestPerCoreStats(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)
	c.Read(0, 0, func() {})
	c.Read(1, 64*64, func() {})
	mem.completeAll()
	if c.PerCore[0].Misses != 1 || c.PerCore[1].Misses != 1 {
		t.Errorf("per-core stats: %+v", c.PerCore)
	}
	if got := c.PerCore[0].MPKI(1000); got != 1 {
		t.Errorf("MPKI = %v, want 1", got)
	}
	c.ResetStats()
	if c.Stats.Accesses != 0 || c.PerCore[0].Misses != 0 {
		t.Error("ResetStats incomplete")
	}
}

// TestHitRingAfterIdleTicks checks the hit-latency ring, whose slots are
// relative to a head that idle Ticks leave in place: after k idle Ticks,
// for every k up to twice the ring length, a hit scheduled now fires on
// exactly the HitLatency-th later Tick, and a second hit with a shorter
// delay fires first. Each round moves the head by HitLatency, so the
// rounds start at every ring phase.
func TestHitRingAfterIdleTicks(t *testing.T) {
	cfg := Table6Config()
	cfg.HitLatency = 5 // a six-slot ring
	c, err := New(cfg, &fakeMem{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const short = 2
	for k := 0; k <= 2*len(c.ring); k++ {
		for i := 0; i < k; i++ {
			c.Tick()
		}
		if c.HitsPending() {
			t.Fatalf("k=%d: a hit is pending after idle ticks", k)
		}
		tick, longAt, shortAt := 0, 0, 0
		c.schedule(cfg.HitLatency, func() { longAt = tick })
		c.schedule(short, func() {
			if longAt != 0 {
				t.Errorf("k=%d: the shorter hit fired after the longer one", k)
			}
			shortAt = tick
		})
		for tick = 1; tick <= cfg.HitLatency; tick++ {
			if !c.HitsPending() {
				t.Fatalf("k=%d: nothing pending before tick %d", k, tick)
			}
			c.Tick()
		}
		if shortAt != short || longAt != cfg.HitLatency {
			t.Fatalf("k=%d: hits fired on ticks %d and %d, want %d and %d",
				k, shortAt, longAt, short, cfg.HitLatency)
		}
		if c.HitsPending() {
			t.Fatalf("k=%d: a hit is still pending", k)
		}
	}
}

// TestChangesCountsAllocationsAndFills pins what Changes counts: an MSHR
// allocation the backend accepted and a line fill move it; a hit, a merge
// into an in-flight fill, a refusal by the backend or for want of an
// MSHR, and an uncached read do not.
func TestChangesCountsAllocationsAndFills(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)
	read := func(addr int64) func() { return func() { c.Read(0, addr, func() {}) } }
	steps := []struct {
		name  string
		do    func()
		moves bool
	}{
		{"read miss allocates an MSHR", read(0x1000), true},
		{"read merges into the in-flight fill", read(0x1010), false},
		{"fill", mem.completeAll, true},
		{"read hit", read(0x1000), false},
		{"backend refuses the miss", func() {
			mem.rejectRd = true
			read(0x2000)()
			mem.rejectRd = false
		}, false},
		{"write miss allocates an MSHR", func() { c.Write(0, 0x3000) }, true},
		{"second MSHR", read(0x4000), true},
		{"third MSHR", read(0x5000), true},
		{"last MSHR", read(0x6000), true},
		{"every MSHR in flight", read(0x7000), false},
		{"uncached read", func() { c.ReadUncached(0, 0x8000, func() {}) }, false},
	}
	for _, st := range steps {
		before := c.Changes()
		st.do()
		if moved := c.Changes() != before; moved != st.moves {
			t.Errorf("%s: Changes moved %v, want %v", st.name, moved, st.moves)
		}
	}
}

// TestMSHRRefusedNamesTheRefusal pins MSHRRefused: it names why the last
// refused access was refused, whichever path refused it, and an accepted
// access leaves it alone.
func TestMSHRRefusedNamesTheRefusal(t *testing.T) {
	mem := &fakeMem{}
	c := newCache(t, mem)
	refuse := func(name string, ok, wantMSHR bool) {
		t.Helper()
		if ok {
			t.Fatalf("%s: the access was accepted", name)
		}
		if c.MSHRRefused() != wantMSHR {
			t.Fatalf("%s: MSHRRefused %v, want %v", name, c.MSHRRefused(), wantMSHR)
		}
	}
	for i := int64(0); i < int64(smallConfig().MSHRs); i++ {
		if !c.Read(0, (i+1)<<12, func() {}) {
			t.Fatal("a miss was refused with MSHRs free")
		}
	}
	refuse("every MSHR in flight", c.Read(0, 0x100000, func() {}), true)
	refuse("write with every MSHR in flight", c.Write(0, 0x200000), true)
	mem.rejectRd = true
	refuse("uncached read the backend refused", c.ReadUncached(0, 0x300000, func() {}), false)
	refuse("every MSHR in flight again", c.Read(0, 0x100000, func() {}), true)
	mem.rejectRd = false
	if !c.ReadUncached(0, 0x300000, func() {}) || !c.MSHRRefused() {
		t.Fatal("an accepted access changed the last refusal")
	}
	mem.completeAll()
	mem.rejectRd = true
	refuse("miss the backend refused", c.Read(0, 0x400000, func() {}), false)
}
