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

	// Instruction window: a ring of done flags indexed by sequence number
	// modulo the (power-of-two) window size. seqHead is the sequence
	// number of the oldest in-flight instruction.
	done    []bool
	mask    int64
	seqHead int64
	inFlite int

	gapLeft   int
	recLoaded bool
	rec       trace.Record

	// outstanding counts in-flight loads whose data has not returned, so
	// the event engine can tell "every window slot is a completed
	// instruction" (bulk-replayable) from "a callback may land any time".
	outstanding int

	// complete holds one load-completion callback per window slot, built
	// once in New: issuing a load, and retrying one the LLC refused,
	// passes an existing func value instead of allocating a closure.
	// Each also wakes the core.
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

// New builds a core over the shared cache.
func New(id int, cfg Config, trc *trace.Trace, llc *cache.Cache) (*Core, error) {
	if cfg.IssueWidth <= 0 || cfg.WindowSize <= 0 {
		return nil, errors.New("cpu: issue width and window size must be positive")
	}
	if cfg.WindowSize&(cfg.WindowSize-1) != 0 {
		return nil, fmt.Errorf("cpu: window size %d must be a power of two", cfg.WindowSize)
	}
	if trc == nil || len(trc.Records) == 0 {
		return nil, errors.New("cpu: empty trace")
	}
	c := &Core{
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

func (c *Core) slot(seq int64) int { return int(seq & c.mask) }

// Tick advances the core one CPU cycle: retire up to IssueWidth done
// instructions from the window head, then issue up to IssueWidth new ones.
//
//rhlint:hotpath
func (c *Core) Tick() {
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
			// Non-memory instruction: completes immediately.
			c.done[c.slot(c.seqHead+int64(c.inFlite))] = true
			c.inFlite++
			c.gapLeft--
			issued++
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
			c.done[c.slot(c.seqHead+int64(c.inFlite))] = true
			c.inFlite++
		} else {
			seq := c.seqHead + int64(c.inFlite)
			s := c.slot(seq)
			c.done[s] = false // before Read: the callback may fire any time after
			var ok bool
			if c.rec.NoCache {
				ok = c.llc.ReadUncached(req, c.rec.Addr, c.complete[s]) // flush+load: always reaches DRAM
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

// BulkWindow reports how many CPU cycles Advance may replay in place of
// exact Ticks; 0 means the core must tick cycle by cycle. Two states are
// replayable:
//
//   - blocked: the instruction window is full and its head instruction is
//     incomplete. Tick does nothing until an external callback
//     completes the head, and callbacks only fire from the LLC or
//     controller clocks — which the event engine holds still during a
//     jump. Unbounded (the engine's other horizons cap the jump).
//
//   - gap run: no loads are outstanding (every window slot is a completed
//     instruction) and the current record still owes more than one issue
//     group of non-memory instructions. Retire/issue evolve arithmetically
//     and no memory access can be attempted for (gapLeft-1)/IssueWidth
//     cycles.
//
//rhlint:hotpath
func (c *Core) BulkWindow() int64 {
	if c.blocked() {
		return 1 << 62
	}
	if c.outstanding == 0 && c.recLoaded && c.gapLeft > c.cfg.IssueWidth {
		return int64((c.gapLeft - 1) / c.cfg.IssueWidth)
	}
	return 0
}

func (c *Core) blocked() bool {
	return c.inFlite == len(c.done) && !c.done[c.slot(c.seqHead)]
}

// Advance replays n cycles, n no larger than BulkWindow(), with the same
// effect as n Ticks. A blocked core does nothing. In a gap run
// every in-flight slot is complete, so one cycle retires
// r=min(I,inFlite) and issues a=min(I, W-inFlite+r) immediately-done gap
// instructions; the state reaches a fixed point (r==a) after at most one
// transient cycle, so the remainder is a multiplication. The done ring is
// rebuilt at the end: exactly the surviving in-flight span is complete.
//
//rhlint:hotpath
func (c *Core) Advance(n int64) {
	if c.blocked() {
		return
	}
	iw := int64(c.cfg.IssueWidth)
	w := int64(len(c.done))
	f := int64(c.inFlite)
	var retired, issued int64
	for n > 0 {
		r := iw
		if f < r {
			r = f
		}
		f -= r
		a := iw
		if w-f < a {
			a = w - f
		}
		f += a
		retired += r
		issued += a
		n--
		if r == a { // fixed point: every further cycle is identical
			retired += r * n
			issued += a * n
			n = 0
		}
	}
	c.Retired += retired
	c.seqHead += retired
	c.gapLeft -= int(issued)
	c.inFlite = int(f)
	for i := range c.done {
		c.done[i] = false
	}
	for s := int64(0); s < f; s++ {
		c.done[c.slot(c.seqHead+s)] = true
	}
}
