// Package cpu implements the paper's simple core model (Table 6: 4 GHz,
// 4-wide issue, 128-entry instruction window): trace-driven in-order
// cores whose memory-level parallelism is bounded by the instruction
// window, the standard Ramulator CPU front end.
package cpu

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Config sizes one core.
type Config struct {
	IssueWidth int // instructions retired/issued per cycle
	WindowSize int // in-flight instruction window entries
}

// Table6Config returns the paper's core parameters.
func Table6Config() Config { return Config{IssueWidth: 4, WindowSize: 128} }

// Core replays one trace through the shared LLC. Non-memory instructions
// complete immediately; loads occupy a window slot until data returns;
// stores retire as soon as the cache accepts them.
type Core struct {
	ID  int
	cfg Config

	trc    *trace.Trace
	pos    int
	pass   int64
	offset int64 // current pass's address offset

	// Instruction window: seqHead is the sequence number of the oldest
	// in-flight instruction and inFlite the number in flight. Non-memory
	// instructions and writes are complete at issue, so only a load can
	// hold retirement, and the window keeps just its in-flight loads: a
	// FIFO in issue order, loads[lhead] first, nloads long, indexed
	// modulo the (power-of-two) window size. A load leaves the FIFO once
	// its data has returned and it reaches the front; from then on it is
	// a complete instruction like any other.
	seqHead int64
	inFlite int
	loads   []load
	mask    int
	lhead   int
	nloads  int

	gapLeft   int
	recLoaded bool
	rec       trace.Record

	// complete holds one load-completion callback per FIFO position,
	// built once in New: issuing a load, and retrying one the LLC refused,
	// passes an existing func value instead of allocating a closure. A
	// position is reused only after its load is done and has left the
	// FIFO. Each also wakes the core.
	complete []func()

	// asleep is set at the end of a Tick that leaves the core blocked
	// and cleared by every load completion; see Asleep.
	asleep bool
	// refused is set at the end of a Tick that stopped at a refused
	// access with a window head that cannot retire, and cleared by every
	// load completion; see Refused.
	refused bool

	llc *cache.Cache

	Retired int64
}

// load is one in-flight load: its sequence number, and whether its data
// has returned.
type load struct {
	seq  int64
	done bool
}

// New builds a core over the shared cache.
func New(id int, cfg Config, trc *trace.Trace, llc *cache.Cache) (*Core, error) {
	if cfg.IssueWidth <= 0 || cfg.WindowSize <= 0 {
		return nil, errors.New("cpu: issue width and window size must be positive")
	}
	if cfg.WindowSize&(cfg.WindowSize-1) != 0 {
		return nil, fmt.Errorf("cpu: window size %d must be a power of two", cfg.WindowSize)
	}
	if cfg.WindowSize < cfg.IssueWidth {
		return nil, fmt.Errorf("cpu: window size %d must hold an issue group of %d", cfg.WindowSize, cfg.IssueWidth)
	}
	if trc == nil || len(trc.Records) == 0 {
		return nil, errors.New("cpu: empty trace")
	}
	c := &Core{
		ID:       id,
		cfg:      cfg,
		trc:      trc,
		loads:    make([]load, cfg.WindowSize),
		mask:     cfg.WindowSize - 1,
		complete: make([]func(), cfg.WindowSize),
		llc:      llc,
	}
	for p := range c.complete {
		c.complete[p] = func() { c.loads[p].done = true; c.asleep, c.refused = false, false }
	}
	return c, nil
}

// ResetStats zeroes retirement statistics (end of warmup) without
// disturbing the pipeline state.
func (c *Core) ResetStats() { c.Retired = 0 }

// Asleep reports that the last Tick left the core blocked (its window
// full and the head load outstanding) and no load has completed since.
// Until one does, Tick changes nothing, so the caller may skip it. Any
// completion wakes the core, not only the head's: waking early costs
// one no-op Tick, never a result.
//
//rhlint:hotpath
func (c *Core) Asleep() bool { return c.asleep }

// Refused reports that the last Tick stopped at an access the LLC
// refused (its MSHRs or the controller's read queue were full, or the
// throttler turned the read away), that the window head cannot retire,
// and that no load has completed since. Until the memory side changes,
// Tick would only retry that access and be refused again, so the caller
// may skip it if it counts what the retry would have counted.
//
//rhlint:hotpath
func (c *Core) Refused() bool { return c.refused }

// Requester is the requester ID the core's next access carries: the
// record's explicit source when the trace declares one, otherwise the
// core's ID. While the core is refused, it is the refused access's.
//
//rhlint:hotpath
func (c *Core) Requester() int {
	if c.rec.Requester != 0 {
		return c.rec.Requester
	}
	return c.ID
}

// Tick advances the core one CPU cycle: retire up to IssueWidth complete
// instructions from the window head, then issue up to IssueWidth new ones.
//
//rhlint:hotpath
func (c *Core) Tick() {
	// Retire: everything ahead of the oldest pending load is complete.
	lim := c.seqHead + int64(c.inFlite)
	if p, ok := c.oldestPending(); ok {
		lim = p
	}
	r := min(int64(c.cfg.IssueWidth), lim-c.seqHead)
	c.seqHead += r
	c.inFlite -= int(r)
	c.Retired += r

	// Issue.
	iw, w := c.cfg.IssueWidth, len(c.loads)
	issued := 0
	refused := false
	for issued < iw && c.inFlite < w {
		if !c.recLoaded {
			c.rec = c.trc.Records[c.pos]
			c.rec.Addr += c.offset
			c.pos++
			if c.pos == len(c.trc.Records) {
				// Traces replay cyclically; each pass shifts its address
				// window so short traces model full-length ones.
				c.pos = 0
				c.pass++
				c.offset = c.trc.PassOffset(c.pass)
			}
			c.gapLeft = c.rec.Gap
			c.recLoaded = true
		}
		if c.gapLeft > 0 {
			// Non-memory instructions: complete at issue.
			a := min(iw-issued, w-c.inFlite, c.gapLeft)
			c.inFlite += a
			c.gapLeft -= a
			issued += a
			continue
		}
		// Memory instruction. The access carries a requester ID down the
		// memory path.
		req := c.Requester()
		if c.rec.Write {
			if !c.llc.Write(req, c.rec.Addr) {
				refused = true
				break // back-pressure: retry next cycle
			}
		} else {
			// Queue the load before Read: the callback may fire any time
			// after.
			p := (c.lhead + c.nloads) & c.mask
			c.loads[p] = load{seq: c.seqHead + int64(c.inFlite)}
			c.nloads++
			var ok bool
			if c.rec.NoCache {
				ok = c.llc.ReadUncached(req, c.rec.Addr, c.complete[p]) // flush+load: always reaches DRAM
			} else {
				ok = c.llc.Read(req, c.rec.Addr, c.complete[p])
			}
			if !ok {
				c.nloads--
				refused = true
				break
			}
		}
		c.inFlite++
		c.recLoaded = false
		issued++
	}
	c.asleep = c.blocked()
	c.refused = refused && (c.inFlite == 0 || c.headPending())
}

// oldestPending returns the sequence number of the oldest load whose data
// has not returned, first dropping the returned loads ahead of it; ok is
// false when no load is pending.
//
//rhlint:hotpath
func (c *Core) oldestPending() (seq int64, ok bool) {
	for c.nloads > 0 {
		if l := c.loads[c.lhead]; !l.done {
			return l.seq, true
		}
		c.lhead = (c.lhead + 1) & c.mask
		c.nloads--
	}
	return 0, false
}

// headPending reports that the window's oldest instruction is a load
// whose data has not returned. Tick and Advance leave no load older than
// seqHead in the FIFO, so its front decides it.
//
//rhlint:hotpath
func (c *Core) headPending() bool {
	return c.nloads > 0 && c.loads[c.lhead].seq == c.seqHead && !c.loads[c.lhead].done
}

// blocked reports that the window is full and its head is a pending load:
// Tick does nothing until a load completes.
//
//rhlint:hotpath
func (c *Core) blocked() bool { return c.inFlite == len(c.loads) && c.headPending() }

// BulkWindow reports how many CPU cycles Advance may replay in place of
// exact Ticks: the cycles before the core next tries a memory access,
// provided no load completes meanwhile. Completions fire only from the
// LLC and controller clocks, which the event engine holds still during a
// jump. Until that access each cycle retires min(IssueWidth, oldest
// pending load − seqHead) instructions and issues min(IssueWidth, free
// slots, gapLeft) gap instructions. Both move at most IssueWidth per
// cycle, so the access comes on cycle gapLeft/IssueWidth + 1, unless the
// window fills behind a pending load first (gapLeft covers the free slots
// plus the instructions ahead of that load): then nothing happens until a
// completion, and the window is unbounded (the engine's other horizons
// cap the jump). A core whose next record is not loaded yet, and that is
// not blocked, reports 0.
//
//rhlint:hotpath
func (c *Core) BulkWindow() int64 {
	if p, ok := c.oldestPending(); ok && c.gapLeft >= len(c.loads)-c.inFlite+int(p-c.seqHead) {
		return 1 << 62
	}
	if !c.recLoaded {
		return 0
	}
	return int64(c.gapLeft / c.cfg.IssueWidth)
}

// Advance replays n cycles, n no larger than BulkWindow(), with the same
// effect as n Ticks, by BulkWindow's arithmetic in closed form. Retirement
// runs at IssueWidth per cycle up to the oldest pending load; with none
// pending, it trails issue by one cycle, so it is short of n·IssueWidth
// only while the window starts with fewer than IssueWidth instructions.
// Issue runs at IssueWidth per cycle, capped by the window's free slots
// plus what retired, and by the gap left. Like a Tick, Advance leaves the
// core asleep when it ends blocked, and not refused.
//
//rhlint:hotpath
func (c *Core) Advance(n int64) {
	if n <= 0 {
		return
	}
	iw, f := int64(c.cfg.IssueWidth), int64(c.inFlite)
	retired := min(n*iw, f+(n-1)*iw)
	if p, ok := c.oldestPending(); ok {
		retired = min(n*iw, p-c.seqHead)
	}
	issued := min(n*iw, int64(len(c.loads))-f+retired, int64(c.gapLeft))
	c.seqHead += retired
	c.Retired += retired
	c.inFlite = int(f - retired + issued)
	c.gapLeft -= int(issued)
	c.asleep, c.refused = c.blocked(), false
}
