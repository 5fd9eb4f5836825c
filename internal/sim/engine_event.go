package sim

// The event engine (EngineEvent) produces byte-identical results to the
// reference loop by construction: it only ever does one of two things per
// iteration —
//
//   - execute one cycle exactly as runCycle would (same component order,
//     same clock-divider arithmetic), or
//
//   - bulk-advance n cycles after proving that each of those cycles would
//     have been trivial for every component: cores either fully blocked
//     or in an arithmetic gap run (cpu.Core.BulkWindow), no LLC fill
//     callback due (cache.NextPendingCycle), and every skipped memory
//     tick a no-op for the controller (memctrl.NextWork). The bulk
//     replays the per-cycle effects — stall/retire counters, clock
//     phases, the BLISS clearing schedule — with closed-form updates.
//
// A cycle on which anything non-trivial could happen is therefore always
// executed exactly, on exactly the cycle number the reference loop would
// have used: the CPU/mem phase accumulator is stepped with the same
// modular arithmetic, so ACT/REF/return timing is preserved bit-for-bit.

// minBulk is the smallest jump worth taking: below it, the exact path is
// cheaper than rebuilding gap-run done rings.
const minBulk = 8

// retireNeed returns the minimum number of cycles before allRetired(tgt)
// can first hold: the largest per-core ceil(deficit/IssueWidth) over
// cores still short of the target. Capping a jump to this bound makes
// checking the retirement condition once, at the end of the jump,
// equivalent to the reference loop's per-cycle check — the condition
// cannot have held strictly inside the window.
//
//rhlint:hotpath
func (s *system) retireNeed(tgt, iw int64) int64 {
	var need int64
	for _, c := range s.cores {
		if c.Retired >= tgt {
			continue
		}
		if n := (tgt - c.Retired + iw - 1) / iw; n > need {
			need = n
		}
	}
	return need
}

// runEvent drives the system to the same final state as runCycle,
// skipping provably-trivial cycles.
//
//rhlint:hotpath
func (s *system) runEvent() {
	target := s.cfg.WarmupInsts
	iw := int64(s.cfg.Core.IssueWidth)
	//rhlint:allow hotalloc(one buffer per run, allocated before the loop)
	gapRun := make([]bool, len(s.cores))

	// Probe backoff: skipping a probe is always safe (the exact path IS
	// the oracle), so after a failed probe the loop runs up to maxBackoff
	// exact cycles before probing again. Dense regimes — where nearly
	// every probe fails — amortize the probe cost away. The cap bounds how
	// late a fresh jump window is spotted: the long idle stretches the
	// engine exists for dwarf it, while sub-maxBulk gap runs may be ridden
	// through exactly — a deliberate trade for dense-regime parity.
	const maxBackoff = 16
	var skipProbes int64
	backoff := int64(1)

	for s.cpuCycle = 0; s.cpuCycle < s.maxCycles; {
		// Longest provably-trivial window starting at this cycle. Probe
		// cheapest-first — core windows, then the (memoized) controller
		// horizon, then the LLC ring — and stop probing as soon as the
		// window provably cannot reach minBulk, so dense regimes pay only
		// the core scan per cycle.
		var n int64
		probed := false
		if skipProbes > 0 {
			skipProbes--
		} else {
			probed = true
			n = s.maxCycles - s.cpuCycle
		}
		for i, c := range s.cores {
			if n < minBulk {
				break // exact path; remaining gapRun entries unused
			}
			w, g := c.BulkWindow()
			gapRun[i] = g
			if w < n {
				n = w
			}
		}
		if n >= minBulk {
			// At most kmax memory ticks may be skipped; convert to CPU
			// cycles through the phase accumulator: ticks in n cycles =
			// floor((memAcc + n*memF)/cpuF). A busy controller (the common
			// dense state) bounds this to ~cpuF/memF cycles, ending the
			// probe before the LLC ring is touched.
			kmax := s.ctrl.NextWork() - s.ctrl.Cycle() - 1
			if nmem := (s.cpuF*(kmax+1) - 1 - s.memAcc) / s.memF; nmem < n {
				n = nmem
			}
		}
		if n >= minBulk {
			// The cycle an LLC callback fires must be a real Tick; one due
			// within minBulk cycles caps n below minBulk, forcing the exact
			// path.
			if due := s.llc.NextPendingCycle(); due >= 0 {
				if m := due - s.llc.Cycle() - 1; m < n {
					n = m
				}
			}
		}
		if n >= minBulk {
			tgt := s.cfg.MeasureInsts
			if !s.warmedUp {
				tgt = target
			}
			if need := s.retireNeed(tgt, iw); need < n {
				n = need
			}
		}

		if n < minBulk {
			if probed {
				skipProbes = backoff
				if backoff < maxBackoff {
					backoff *= 2
				}
			}
			s.tick()
			s.cpuCycle++
		} else {
			backoff = 1
			s.llc.AdvanceIdle(n)
			for i, c := range s.cores {
				if gapRun[i] {
					c.AdvanceGap(n)
				} else {
					c.AdvanceIdle(n)
				}
			}
			ticks := (s.memAcc + n*s.memF) / s.cpuF
			s.memAcc += n*s.memF - ticks*s.cpuF
			if ticks > 0 {
				s.ctrl.AdvanceIdle(ticks)
			}
			s.cpuCycle += n
		}

		// The reference loop checks after every cycle; the retireNeed cap
		// guarantees the condition cannot have first held strictly inside
		// a bulk window, so checking at its end is exact. cpuCycle here is
		// the count of executed cycles; the current cycle index (the
		// reference loop's cpuCycle inside the body) is cpuCycle-1.
		if !s.warmedUp && s.allRetired(target) {
			s.cpuCycle--
			s.beginMeasure()
			s.cpuCycle++
		}
		if s.warmedUp && s.allRetired(s.cfg.MeasureInsts) {
			s.cpuCycle-- // the reference loop breaks before incrementing
			return
		}
	}
}
