package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// lockMem is one side's backend in TestCacheMatchesReference: it logs
// every request it is offered, refuses reads while refuse is set, and
// holds accepted reads' callbacks until the test completes them.
type lockMem struct {
	refuse  bool
	log     []memReq
	pending []func()
}

type memReq struct {
	write, refused bool
	req            int
	addr           int64
}

func (m *lockMem) EnqueueRead(req int, addr int64, onDone func()) bool {
	m.log = append(m.log, memReq{refused: m.refuse, req: req, addr: addr})
	if m.refuse {
		return false
	}
	m.pending = append(m.pending, onDone)
	return true
}

func (m *lockMem) EnqueueWrite(req int, addr int64) {
	m.log = append(m.log, memReq{write: true, req: req, addr: addr})
}

// complete fires the i-th pending callback.
func (m *lockMem) complete(i int) {
	fn := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	if fn != nil {
		fn()
	}
}

// TestCacheMatchesReference drives the cache and refCache, the LLC as it
// stood before lines became one word allocated at the first fill, in
// lockstep over seeded random streams: cached reads and writes, uncached
// reads, backends that refuse reads, fills completed out of order, so
// that MSHRs merge and run out, and idle and hit-ring Ticks. Every
// answer, callback, backend request, counter and, at the end of each
// stream, the way and dirty bit every line address occupies must agree.
// The geometries run from one set to 16, from direct-mapped to 16 ways,
// and addresses include tags near both ends of the int64 range.
func TestCacheMatchesReference(t *testing.T) {
	var hits, merges, writebacks, refusals, mshrOut int64
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xcac4e))
		assoc := 1 << rng.IntN(5)
		nsets := 1 << (2 * rng.IntN(3))
		cfg := Config{
			SizeBytes:  int64(nsets * assoc * 64),
			Assoc:      assoc,
			LineBytes:  64,
			HitLatency: rng.IntN(4),
			MSHRs:      rng.IntN(6),
		}
		const cores = 3
		mem, refMem := &lockMem{}, &lockMem{}
		c, err := New(cfg, mem, cores)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(cfg, refMem, cores)
		var fired, refFired []int
		var logged, firedSeen int // entries of mem.log and fired already compared
		done := func(log *[]int, id int) func() { return func() { *log = append(*log, id) } }

		bases := []int64{0, 1 << 40, -1 << 40, (1<<63 - 1) &^ (1<<20 - 1), -1 << 63}
		base := bases[rng.IntN(len(bases))]
		universe := int64(nsets * assoc * 2)
		addr := func() int64 { return base + rng.Int64N(universe)*64 + rng.Int64N(64) }

		for step := 0; step < 3_000; step++ {
			var ok, refOK bool
			switch op := rng.IntN(20); {
			case op < 6:
				a, core := addr(), rng.IntN(cores+1)-1
				ok, refOK = c.Read(core, a, done(&fired, step)), ref.Read(core, a, done(&refFired, step))
			case op < 9:
				a, core := addr(), rng.IntN(cores)
				ok, refOK = c.Write(core, a), ref.Write(core, a)
			case op < 11:
				a, core := addr(), rng.IntN(cores)
				ok, refOK = c.ReadUncached(core, a, done(&fired, step)), ref.ReadUncached(core, a, done(&refFired, step))
			case op < 14:
				c.Tick()
				ref.Tick()
			case op < 19:
				if len(mem.pending) > 0 {
					i := rng.IntN(len(mem.pending))
					mem.complete(i)
					refMem.complete(i)
				}
			default:
				mem.refuse = !mem.refuse
				refMem.refuse = mem.refuse
			}
			if ok != refOK || !slices.Equal(fired[firedSeen:], refFired[firedSeen:]) || !slices.Equal(mem.log[logged:], refMem.log[logged:]) ||
				len(mem.pending) != len(refMem.pending) || c.Stats != ref.Stats || !slices.Equal(c.PerCore, ref.PerCore) ||
				c.Changes() != ref.changes || c.MSHRRefused() != ref.mshrRefused || c.HitsPending() != (ref.npending > 0) {
				t.Fatalf("seed %d, step %d: the cache diverged from the reference\n cache ok=%v stats %+v changes %d\n   ref ok=%v stats %+v changes %d",
					seed, step, ok, c.Stats, c.Changes(), refOK, ref.Stats, ref.changes)
			}
			if !ok && c.MSHRRefused() {
				mshrOut++
			}
			firedSeen, logged = len(fired), len(mem.log)
		}
		for la := base / 64; la <= base/64+universe; la++ {
			s, w := c.lookup(la)
			rs, rw := ref.lookup(la)
			if s != rs || w != rw || (w >= 0 && (c.lines[s*assoc+w]&lineDirty != 0) != ref.lines[rs*assoc+rw].dirty) {
				t.Fatalf("seed %d: line %d sits in set %d way %d, the reference's in set %d way %d, or their dirty bits differ",
					seed, la, s, w, rs, rw)
			}
		}
		hits += c.Stats.Hits
		merges += c.Stats.MSHRMerges
		writebacks += c.Stats.Writebacks
		for _, r := range mem.log {
			if r.refused {
				refusals++
			}
		}
	}
	if hits == 0 || merges == 0 || writebacks == 0 || refusals == 0 || mshrOut == 0 {
		t.Fatalf("the streams missed a path: %d hits, %d merges, %d writebacks, %d backend refusals, %d MSHR refusals",
			hits, merges, writebacks, refusals, mshrOut)
	}
	t.Logf("%d hits, %d merges, %d writebacks, %d backend refusals, %d MSHR refusals", hits, merges, writebacks, refusals, mshrOut)
}

// refCache is the LLC as it stood before lines became one word allocated
// at the first fill: a line is a struct of tag, valid and dirty flags,
// and New allocates every line and writes every set's LRU stack as the
// permutation 0..Assoc-1. It is kept as the oracle of
// TestCacheMatchesReference and is built only by the tests. The MSHRs,
// their index and the hit ring are the production parts, unchanged.
type refCache struct {
	cfg     Config
	lines   []refLine
	lru     []int8
	nsets   int
	backend Backend

	free        *mshr
	inflight    mshrTable
	changes     uint64
	mshrRefused bool

	ring     [][]func()
	head     int
	npending int

	Stats   Stats
	PerCore []Stats
}

type refLine struct {
	tag   int64
	valid bool
	dirty bool
}

// newRefCache builds the reference over a config New accepts.
func newRefCache(cfg Config, backend Backend, cores int) *refCache {
	nsets := int(cfg.SizeBytes / int64(cfg.LineBytes) / int64(cfg.Assoc))
	cfg.HitLatency = max(cfg.HitLatency, 1)
	cfg.MSHRs = max(cfg.MSHRs, 1)
	c := &refCache{
		cfg:      cfg,
		nsets:    nsets,
		backend:  backend,
		inflight: newMSHRTable(cfg.MSHRs),
		ring:     make([][]func(), cfg.HitLatency+1),
		PerCore:  make([]Stats, cores),
	}
	pool := make([]mshr, cfg.MSHRs)
	for i := range pool {
		m := &pool[i]
		m.fill = func() { c.fill(m) }
		c.release(m)
	}
	c.lines = make([]refLine, nsets*cfg.Assoc)
	c.lru = make([]int8, nsets*cfg.Assoc)
	for i := range c.lru {
		c.lru[i] = int8(i % cfg.Assoc)
	}
	return c
}

func (c *refCache) Tick() {
	if c.npending == 0 {
		return
	}
	c.head = (c.head + 1) % len(c.ring)
	fns := c.ring[c.head]
	c.ring[c.head] = nil
	c.npending -= len(fns)
	for _, fn := range fns {
		fn()
	}
}

func (c *refCache) schedule(delay int, fn func()) {
	slot := (c.head + max(delay, 1)) % len(c.ring)
	c.ring[slot] = append(c.ring[slot], fn)
	c.npending++
}

func (c *refCache) lineAddr(addr int64) int64 { return addr / int64(c.cfg.LineBytes) }

func (c *refCache) setOf(la int64) int { return int(la & int64(c.nsets-1)) }

func (c *refCache) set(s int) ([]refLine, []int8) {
	lo, hi := s*c.cfg.Assoc, (s+1)*c.cfg.Assoc
	return c.lines[lo:hi], c.lru[lo:hi]
}

func (c *refCache) touch(s, way int) {
	_, order := c.set(s)
	for i, w := range order {
		if int(w) == way {
			copy(order[1:i+1], order[:i])
			order[0] = int8(way)
			return
		}
	}
}

func (c *refCache) lookup(la int64) (set, way int) {
	s := c.setOf(la)
	lines, _ := c.set(s)
	for w := range lines {
		if lines[w].valid && lines[w].tag == la {
			return s, w
		}
	}
	return s, -1
}

func (c *refCache) install(req int, la int64, dirty bool) {
	s := c.setOf(la)
	lines, order := c.set(s)
	victim := int(order[len(order)-1])
	for w := range lines {
		if !lines[w].valid {
			victim = w
			break
		}
	}
	v := &lines[victim]
	if v.valid && v.dirty {
		c.Stats.Writebacks++
		c.backend.EnqueueWrite(req, v.tag*int64(c.cfg.LineBytes))
	}
	*v = refLine{tag: la, valid: true, dirty: dirty}
	c.touch(s, victim)
}

func (c *refCache) account(core int, hit bool) {
	c.Stats.Accesses++
	if hit {
		c.Stats.Hits++
	} else {
		c.Stats.Misses++
	}
	if core >= 0 && core < len(c.PerCore) {
		c.PerCore[core].Accesses++
		if hit {
			c.PerCore[core].Hits++
		} else {
			c.PerCore[core].Misses++
		}
	}
}

func (c *refCache) access(core int, addr int64, write bool, onDone func()) bool {
	la := c.lineAddr(addr)
	if s, w := c.lookup(la); w >= 0 {
		c.account(core, true)
		c.touch(s, w)
		if write {
			c.lines[s*c.cfg.Assoc+w].dirty = true
		}
		if onDone != nil {
			c.schedule(c.cfg.HitLatency, onDone)
		}
		return true
	}
	if m := c.inflight.get(la); m != nil {
		c.Stats.MSHRMerges++
		c.account(core, false)
		if write {
			m.dirty = true
		}
		if onDone != nil {
			m.waiters = append(m.waiters, onDone)
		}
		return true
	}
	m := c.free
	if m == nil {
		c.mshrRefused = true
		return false
	}
	c.free = m.next
	m.lineAddr, m.req, m.dirty = la, core, write
	if onDone != nil {
		m.waiters = append(m.waiters, onDone)
	}
	c.inflight.put(m)
	if !c.backend.EnqueueRead(core, la*int64(c.cfg.LineBytes), m.fill) {
		c.inflight.remove(la)
		c.release(m)
		c.mshrRefused = false
		return false
	}
	c.changes++
	c.account(core, false)
	return true
}

func (c *refCache) fill(m *mshr) {
	c.changes++
	c.inflight.remove(m.lineAddr)
	c.install(m.req, m.lineAddr, m.dirty)
	for _, fn := range m.waiters {
		fn()
	}
	c.release(m)
}

func (c *refCache) release(m *mshr) {
	m.waiters = nil
	m.next = c.free
	c.free = m
}

func (c *refCache) Read(core int, addr int64, onDone func()) bool {
	return c.access(core, addr, false, onDone)
}

func (c *refCache) ReadUncached(core int, addr int64, onDone func()) bool {
	la := c.lineAddr(addr)
	if m := c.inflight.get(la); m != nil {
		c.Stats.MSHRMerges++
		c.account(core, false)
		if onDone != nil {
			m.waiters = append(m.waiters, onDone)
		}
		return true
	}
	if !c.backend.EnqueueRead(core, la*int64(c.cfg.LineBytes), onDone) {
		c.mshrRefused = false
		return false
	}
	if s, w := c.lookup(la); w >= 0 {
		l := &c.lines[s*c.cfg.Assoc+w]
		if l.dirty {
			c.Stats.Writebacks++
			c.backend.EnqueueWrite(core, la*int64(c.cfg.LineBytes))
		}
		*l = refLine{}
	}
	c.account(core, false)
	return true
}

func (c *refCache) Write(core int, addr int64) bool {
	return c.access(core, addr, true, nil)
}
