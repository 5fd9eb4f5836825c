// Package mitigation implements the six RowHammer mitigation mechanisms
// the paper evaluates (Section 6.1): Increased Refresh Rate, PARA,
// ProHIT, MRLoc, TWiCe (plus its idealized variant) and the Ideal
// refresh-based mechanism, each parameterized by the chip's HCfirst so
// their overhead scaling can be measured (Figure 10). Two later designs
// sit on the same contract: the BlockHammer throttler (Yağlıkçı et al.,
// HPCA 2021) and a model of the in-DRAM TRR samplers that the trr-dodge
// study paces attacks around.
//
// Each mechanism is a small policy over shared parts (base): the
// validated Params, the in-bank neighbours of an activated row, a result
// buffer its decisions return without allocating, the no-op defaults of
// the hooks it does not need, and (TRR, BlockHammer) an epoch clock.
package mitigation

import (
	"fmt"
)

// Params carries the system facts mechanisms need for scaling.
type Params struct {
	// HCFirst is the protected chip's weakest-cell hammer count; the
	// mechanism must prevent any row's neighbours from accumulating this
	// many hammers between refreshes of the row.
	HCFirst int

	Rows  int // rows per bank
	Banks int // total banks

	TRC   int64 // ns-scale timings expressed in memory-clock cycles
	TREFI int64
	TREFW int64

	Seed uint64
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.HCFirst <= 0:
		return fmt.Errorf("mitigation: HCFirst must be positive, got %d", p.HCFirst)
	case p.Rows <= 0 || p.Banks <= 0:
		return fmt.Errorf("mitigation: rows/banks must be positive (%d, %d)", p.Rows, p.Banks)
	case p.TRC <= 0 || p.TREFI <= 0 || p.TREFW <= 0:
		return fmt.Errorf("mitigation: timings must be positive")
	}
	return nil
}

// refsPerWindow returns how many REF commands fall in one refresh window.
func (p Params) refsPerWindow() float64 { return float64(p.TREFW) / float64(p.TREFI) }

// Mechanism observes the command stream and asks the controller to
// refresh victim rows. Implementations are single-threaded, driven from
// the controller's clock domain.
type Mechanism interface {
	// Name identifies the mechanism in reports.
	Name() string

	// OnActivate is invoked for every ACT the channel performs —
	// including mitigation-triggered ones (fromMitigation=true), which
	// are themselves activations that disturb their own neighbours. It
	// returns rows (same bank) the controller must refresh now.
	//
	// The rows OnActivate and OnAutoRefresh return are borrowed: the
	// slice is the mechanism's own buffer and stays valid only until the
	// mechanism's next call. Callers copy what they keep.
	OnActivate(bank, row int, cycle int64, fromMitigation bool) []int

	// OnAutoRefresh is invoked per bank when a REF command's rotation
	// covers [rowStart, rowStart+rowCount); mechanisms reset tracking
	// state for those rows and may return extra rows to refresh (ProHIT
	// services its hot table on refresh commands).
	OnAutoRefresh(bank, rowStart, rowCount int, cycle int64) []int

	// RefreshMultiplier scales the controller's REF rate: 1 is nominal;
	// the Increased Refresh Rate mechanism returns tREFW/tREFW'.
	RefreshMultiplier() float64
}

// Viability lets mechanisms declare the HCfirst range their design
// supports (Section 6.1: Increased Refresh and TWiCe do not scale below
// HCfirst = 32k; ProHIT and MRLoc have published parameters only for
// HCfirst = 2k).
type Viability interface {
	Viable() bool
}

// RequesterNone marks an access whose source is unknown (direct
// controller use without a core in front). Throttlers must treat it as a
// distinct, never-privileged source.
const RequesterNone = -1

// Throttler is the optional extension throttling-based defenses implement
// (BlockHammer, Yağlıkçı et al., HPCA 2021). The controller consults
// ActAllowed before issuing a demand activation and delays the request
// while it returns false; mitigation-triggered refreshes are never
// throttled. Mechanisms still observe every issued ACT via OnActivate.
//
// The three methods split the design's two blockers plus its bookkeeping:
// ActAllowed is RowBlocker-Act (the per-row safety invariant — it must not
// depend on the requester for its admit/deny answer, or a spoofed source
// could exceed a row's activation budget); AdmitRequest is RowBlocker-Req
// (requester-aware queue admission, so a hammering thread cannot crowd the
// read queue with unissuable requests); OnRequesterACT attributes every
// issued demand ACT to its source so per-thread RowHammer-likelihood state
// can accrue. queueLoad is the read queue's occupancy fraction at
// admission time.
type Throttler interface {
	ActAllowed(requester, bank, row int, cycle int64) bool
	AdmitRequest(requester, bank, row int, queueLoad float64, cycle int64) bool
	OnRequesterACT(requester, bank, row int, cycle int64)
}

// base is the part every mechanism shares: its validated parameters, the
// buffer its decisions return, and the defaults of the hooks a policy
// does not need — no victims, the nominal refresh rate, and viability
// at every HCfirst.
type base struct {
	p   Params
	out []int
}

func newBase(p Params) (base, error) {
	if err := p.Validate(); err != nil {
		return base{}, err
	}
	return base{p: p, out: make([]int, 0, 2)}, nil
}

// reset starts a decision: the previous result's rows are dropped.
func (b *base) reset() { b.out = b.out[:0] }

// emit adds victim rows to the current decision's result.
func (b *base) emit(rows ...int) { b.out = append(b.out, rows...) }

func (base) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int { return nil }

func (base) OnAutoRefresh(bank, rowStart, rowCount int, cycle int64) []int { return nil }

func (base) RefreshMultiplier() float64 { return 1 }

func (base) Viable() bool { return true }

// neighbors returns the rows adjacent to row that lie inside a bank of
// the given number of rows, lower first, as ns[:n]. Returning an array
// keeps every decision off the heap.
func neighbors(row, rows int) (ns [2]int, n int) {
	if row > 0 {
		ns[n] = row - 1
		n++
	}
	if row < rows-1 {
		ns[n] = row + 1
		n++
	}
	return ns, n
}

// epoch is a clock of fixed-length epochs starting at cycle 0.
type epoch struct {
	start, length int64
}

// next moves the clock past one epoch boundary at or before cycle and
// reports whether there was one; callers loop so that every boundary
// crossed since the last call is handled.
func (e *epoch) next(cycle int64) bool {
	if cycle-e.start < e.length {
		return false
	}
	e.start += e.length
	return true
}

// None is the no-mitigation baseline.
type None struct{ base }

// NewNone returns the baseline mechanism.
func NewNone() None { return None{} }

func (None) Name() string { return "None" }
