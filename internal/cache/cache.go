// Package cache models the shared last-level cache of the simulated
// system (Table 6: 16 MiB, 8-way, 64 B lines): LRU replacement,
// write-back/write-allocate, and MSHR-based miss handling in front of the
// memory controller.
package cache

import (
	"errors"
	"fmt"
)

// Backend is the memory side of the cache (the memory controller).
// EnqueueRead returns false when the read queue is full — the cache then
// rejects the access and the core retries. Writebacks must always be
// accepted (the controller keeps a write backlog). Every request carries
// the requester (source/thread) ID of the access that caused it, so the
// controller can attribute queue pressure and activations per source:
// misses carry the requester that allocated the MSHR, writebacks the
// requester whose fill or flush evicted the dirty line.
type Backend interface {
	EnqueueRead(requester int, addr int64, onDone func()) bool
	EnqueueWrite(requester int, addr int64)
}

// Config sizes the cache.
type Config struct {
	SizeBytes  int64
	Assoc      int
	LineBytes  int
	HitLatency int // CPU cycles from access to data for a hit
	MSHRs      int // outstanding distinct line misses
}

// Table6Config is the paper's LLC: 16 MiB, 8-way, 64 B lines. Hit latency
// approximates a three-level hierarchy's LLC round trip; MSHRs allow full
// memory-level parallelism across the 8-core window.
func Table6Config() Config {
	return Config{
		SizeBytes:  16 << 20,
		Assoc:      8,
		LineBytes:  64,
		HitLatency: 30,
		MSHRs:      64,
	}
}

type line struct {
	tag   int64
	valid bool
	dirty bool
}

// Stats counts cache activity, per requester and total.
type Stats struct {
	Accesses, Hits, Misses int64
	Writebacks             int64
	MSHRMerges             int64
}

// Cache is a set-associative LLC. It is driven in the CPU clock domain:
// call Tick once per CPU cycle.
type Cache struct {
	cfg Config
	// Set s owns ways [s·Assoc, (s+1)·Assoc) of lines and lru; lru holds
	// each set's LRU stack, most recent way first.
	lines   []line
	lru     []int8
	nsets   int
	backend Backend

	free     *mshr     // idle MSHRs
	inflight mshrTable // outstanding MSHRs by line address
	changes  uint64    // MSHR allocations and fills; see Changes
	// mshrRefused records whether the last access the cache refused found
	// every MSHR in flight, rather than being refused by the backend.
	mshrRefused bool

	// Hit-latency delay ring: a callback due d Ticks from now waits in
	// ring[(head+d) % len(ring)]. Slots are relative to head, and Tick
	// moves head only while a callback is pending, because an empty
	// ring's position is unobservable. Each slot starts with room for
	// one callback per core, carved from one backing array.
	ring     [][]func()
	head     int
	npending int // callbacks waiting in the ring

	Stats   Stats
	PerCore []Stats
}

// New builds a cache over the backend for n requesters (cores).
func New(cfg Config, backend Backend, cores int) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 || cfg.LineBytes <= 0 {
		return nil, errors.New("cache: size, associativity and line size must be positive")
	}
	nsets := int(cfg.SizeBytes / int64(cfg.LineBytes) / int64(cfg.Assoc))
	if nsets == 0 {
		return nil, errors.New("cache: fewer than one set")
	}
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d must be a power of two", nsets)
	}
	if cfg.HitLatency < 1 {
		cfg.HitLatency = 1
	}
	if cfg.MSHRs < 1 {
		cfg.MSHRs = 1
	}
	c := &Cache{
		cfg:      cfg,
		nsets:    nsets,
		backend:  backend,
		inflight: newMSHRTable(cfg.MSHRs),
		ring:     make([][]func(), cfg.HitLatency+1),
		PerCore:  make([]Stats, cores),
	}
	slots := make([]func(), len(c.ring)*cores)
	for i := range c.ring {
		// Capped at its own share, so a fuller slot reallocates alone.
		c.ring[i] = slots[i*cores : i*cores : (i+1)*cores]
	}
	pool := make([]mshr, cfg.MSHRs)
	for i := range pool {
		m := &pool[i]
		m.fill = func() { c.fill(m) }
		c.release(m)
	}
	c.lines = make([]line, nsets*cfg.Assoc)
	c.lru = make([]int8, nsets*cfg.Assoc)
	for i := range c.lru {
		c.lru[i] = int8(i % cfg.Assoc)
	}
	return c, nil
}

// Tick advances the CPU clock one cycle and fires the hit callbacks due.
// With nothing pending it returns at once.
func (c *Cache) Tick() {
	if c.npending == 0 {
		return
	}
	c.head++
	if c.head == len(c.ring) {
		c.head = 0
	}
	if fns := c.ring[c.head]; len(fns) > 0 {
		c.npending -= len(fns)
		for _, fn := range fns {
			fn()
		}
		c.ring[c.head] = c.ring[c.head][:0]
	}
}

// Changes counts the MSHR allocations and line fills so far: the events
// that can change, for a line that missed, whether it is now cached or
// already in flight, and whether an MSHR is free. An access the cache or
// its backend refused gets the same answer while this count and the
// backend's state hold still.
//
//rhlint:hotpath
func (c *Cache) Changes() uint64 { return c.changes }

// MSHRRefused reports whether the last access the cache refused was
// refused for want of a free MSHR; otherwise its backend refused it.
//
//rhlint:hotpath
func (c *Cache) MSHRRefused() bool { return c.mshrRefused }

// HitsPending reports whether a hit callback is waiting in the ring.
// While one is, every cycle needs a real Tick.
//
//rhlint:hotpath
func (c *Cache) HitsPending() bool { return c.npending > 0 }

func (c *Cache) schedule(delay int, fn func()) {
	if delay < 1 {
		delay = 1
	}
	slot := (c.head + delay) % len(c.ring)
	//rhlint:allow hotalloc(amortized: a slot starts with one entry per core and Tick truncates fired slots to length 0, so slot capacity is reused across cycles)
	c.ring[slot] = append(c.ring[slot], fn)
	c.npending++
}

func (c *Cache) lineAddr(addr int64) int64 { return addr / int64(c.cfg.LineBytes) }

func (c *Cache) setOf(la int64) int { return int(la & int64(c.nsets-1)) }

// set returns set s's lines and its LRU stack.
func (c *Cache) set(s int) ([]line, []int8) {
	lo, hi := s*c.cfg.Assoc, (s+1)*c.cfg.Assoc
	return c.lines[lo:hi], c.lru[lo:hi]
}

// touch moves way to the MRU position of set s.
func (c *Cache) touch(s, way int) {
	_, order := c.set(s)
	for i, w := range order {
		if int(w) == way {
			copy(order[1:i+1], order[:i])
			order[0] = int8(way)
			return
		}
	}
}

// lookup returns la's set and the way holding it, or -1.
func (c *Cache) lookup(la int64) (set, way int) {
	s := c.setOf(la)
	lines, _ := c.set(s)
	for w := range lines {
		if lines[w].valid && lines[w].tag == la {
			return s, w
		}
	}
	return s, -1
}

// install fills la into its set, evicting LRU (writing back if dirty).
// req attributes the eviction's writeback to the requester whose fill
// displaced the victim line.
func (c *Cache) install(req int, la int64, dirty bool) {
	s := c.setOf(la)
	lines, order := c.set(s)
	victim := int(order[len(order)-1])
	for w := range lines { // prefer an invalid way
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
	*v = line{tag: la, valid: true, dirty: dirty}
	c.touch(s, victim)
}

func (c *Cache) account(core int, hit bool) {
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

// access implements both reads and writes; onDone fires when the data is
// available (reads) or the line is owned (writes). It returns false when
// the access cannot be accepted this cycle (MSHRs or the controller's
// read queue are full) — the caller must retry. A refused miss returns
// its MSHR to the free list, so retrying allocates nothing.
//
//rhlint:hotpath
func (c *Cache) access(core int, addr int64, write bool, onDone func()) bool {
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
	// Miss: merge into an in-flight fill when possible.
	if m := c.inflight.get(la); m != nil {
		c.Stats.MSHRMerges++
		c.account(core, false)
		if write {
			m.dirty = true
		}
		if onDone != nil {
			//rhlint:allow hotalloc(amortized: a recycled MSHR keeps its waiter capacity)
			m.waiters = append(m.waiters, onDone)
		}
		return true
	}
	m := c.free
	if m == nil {
		c.mshrRefused = true
		return false // every MSHR is in flight
	}
	c.free = m.next
	m.lineAddr, m.req, m.dirty = la, core, write
	if onDone != nil {
		//rhlint:allow hotalloc(amortized: a recycled MSHR keeps its waiter capacity)
		m.waiters = append(m.waiters, onDone)
	}
	// Register the MSHR before handing the fill callback to the backend:
	// a backend that completes synchronously must find (and clear) it.
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

// fill completes m's line fill: the line is installed, every waiter
// fires, and m returns to the free list.
func (c *Cache) fill(m *mshr) {
	c.changes++
	c.inflight.remove(m.lineAddr)
	c.install(m.req, m.lineAddr, m.dirty)
	for _, fn := range m.waiters {
		fn()
	}
	c.release(m)
}

// release returns m to the free list. It keeps the waiter capacity but
// drops the callbacks.
//
//rhlint:hotpath
func (c *Cache) release(m *mshr) {
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	m.next = c.free
	c.free = m
}

// Read requests addr for the given requester (core/thread) ID; onDone
// fires when data is ready. The requester ID flows through to the memory
// controller for per-source attribution.
func (c *Cache) Read(core int, addr int64, onDone func()) bool {
	return c.access(core, addr, false, onDone)
}

// ReadUncached models a flush+load (the clflush-based access sequence
// RowHammer attack code uses): any cached copy of the line is invalidated
// (written back when dirty) and the load goes straight to the memory
// controller without allocating, so every replay reaches DRAM. Returns
// false when the controller's read queue rejects the request.
func (c *Cache) ReadUncached(core int, addr int64, onDone func()) bool {
	la := c.lineAddr(addr)
	// An in-flight fill for the line must complete first: ride it. The
	// subsequent replay will find the line cached, flush it, and miss.
	if m := c.inflight.get(la); m != nil {
		c.Stats.MSHRMerges++
		c.account(core, false)
		if onDone != nil {
			//rhlint:allow hotalloc(amortized: a recycled MSHR keeps its waiter capacity)
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
		*l = line{}
	}
	c.account(core, false)
	return true
}

// Write stores to addr (write-allocate, write-back). The done callback is
// optional: stores retire immediately in the core model.
func (c *Cache) Write(core int, addr int64) bool {
	return c.access(core, addr, true, nil)
}

// MPKI returns misses per kilo-instruction given an instruction count.
func (s Stats) MPKI(instructions int64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) * 1000 / float64(instructions)
}

// ResetStats zeroes the counters (end of warmup).
func (c *Cache) ResetStats() {
	c.Stats = Stats{}
	for i := range c.PerCore {
		c.PerCore[i] = Stats{}
	}
}
