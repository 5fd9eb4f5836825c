//go:build !race

// The oracle runs 60 single-threaded simulations; under the race
// detector they take minutes and exercise no concurrency, so it runs in
// the regular test pass only (CI runs both).

package sim

import (
	"fmt"
	"testing"

	"repro/internal/attack"
	"repro/internal/mitigation"
)

// actWindow is a CommandObserver that records every row's ACT cycles and
// keeps the most ACTs any row took within any window of the given length
// (memory cycles), the budget BlockHammer promises to keep below HCfirst.
type actWindow struct {
	length int64
	acts   map[int64][]int64 // (bank, row) → ACT cycles; a row's window starts at head[row]
	head   map[int64]int
	most   int
	row    [2]int // the (bank, row) that took most
}

func newACTWindow(length int64) *actWindow {
	return &actWindow{length: length, acts: map[int64][]int64{}, head: map[int64]int{}}
}

func (w *actWindow) OnACT(rank, bank, row int, cycle int64) {
	k := int64(bank)<<32 | int64(row)
	acts := append(w.acts[k], cycle)
	w.acts[k] = acts
	h := w.head[k]
	for acts[h] <= cycle-w.length {
		h++
	}
	w.head[k] = h
	if n := len(acts) - h; n > w.most {
		w.most, w.row = n, [2]int{bank, row}
	}
}

func (w *actWindow) OnRefresh(rank, bank, rowStart, rowCount int, cycle int64) {}

// TestBlockHammerBudget is an exact oracle for BlockHammer's guarantee:
// no row takes HCfirst ACTs within any tREFW-long window. It runs each
// admission policy against every attack pattern beside a benign core,
// under FR-FCFS and BLISS, with tREFW cut to 100K and to 400K memory
// cycles so that each run spans three epochs (tREFW/2) and crosses the
// rotations where the sketch forgets. Each run's maximum is logged
// against the budget the mechanism enforces, maxActs = 0.8 × HCfirst.
func TestBlockHammerBudget(t *testing.T) {
	const hc = 128
	policies := []func(mitigation.Params) (*mitigation.BlockHammer, error){
		mitigation.NewBlockHammer, mitigation.NewBlockHammerBinary, mitigation.NewBlockHammerBlanket,
	}
	for _, refw := range []int64{100_000, 400_000} {
		for _, build := range policies {
			for _, kind := range attack.Kinds() {
				for _, bliss := range []bool{false, true} {
					mk := attackScenario(kind, 0, 0, 1, blockHammer(hc, refw, build), func(c *Config) {
						c.Ctrl.BLISS = bliss
						c.MaxCPUCycles = 3 * refw / 2 * int64(c.CPUFreqMHz) / int64(c.MemFreqMHz)
					})
					cfg, mix, _ := mk(t)
					w := newACTWindow(refw)
					cfg.Observer = w
					res, err := Run(cfg, mix)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("tREFW=%d/%s/%s/bliss=%v", refw, res.Mechanism, kind, bliss)
					t.Logf("%s: most ACTs of one row in one tREFW: %d (bank %d row %d), maxActs %.1f, HCfirst %d",
						name, w.most, w.row[0], w.row[1], 0.8*hc, hc)
					if w.most >= hc {
						t.Errorf("%s: a row took %d ACTs within one tREFW, HCfirst is %d", name, w.most, hc)
					}
				}
			}
		}
	}
}
