// Package mitigation implements the six RowHammer mitigation mechanisms
// the paper evaluates (Section 6.1): Increased Refresh Rate, PARA,
// ProHIT, MRLoc, TWiCe (plus its idealized variant) and the Ideal
// refresh-based mechanism, each parameterized by the chip's HCfirst so
// their overhead scaling can be measured (Figure 10).
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
	ViabilityNote() string
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

// clampNeighbors returns row's adjacent rows that lie inside the bank.
func clampNeighbors(row, rows int) []int {
	var out []int
	if row > 0 {
		out = append(out, row-1)
	}
	if row < rows-1 {
		out = append(out, row+1)
	}
	return out
}

// None is the no-mitigation baseline.
type None struct{}

// NewNone returns the baseline mechanism.
func NewNone() None { return None{} }

func (None) Name() string { return "None" }

func (None) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int { return nil }

func (None) OnAutoRefresh(bank, rowStart, rowCount int, cycle int64) []int { return nil }

func (None) RefreshMultiplier() float64 { return 1 }
