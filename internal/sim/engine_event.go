package sim

import "repro/internal/dram"

// The event engine (EngineEvent) produces byte-identical results to the
// reference loop by construction: it only ever does one of two things per
// iteration —
//
//   - execute one cycle exactly as runCycle would (same component order,
//     same clock-divider arithmetic), or
//
//   - bulk-advance n cycles after proving that each of those cycles would
//     have been trivial for every component, then replay them in closed
//     form: cpu.Core.Advance for the cores, n counted retries
//     (system.repeatRefusal) for a core whose refusal holds, and
//     memctrl.AdvanceIdle (clock, throttle stalls and BLISS clearing
//     schedule) for the controller. The LLC needs no replay: a jump is
//     refused while it holds a pending hit.
//
// A cycle on which anything non-trivial could happen is therefore always
// executed exactly, on exactly the cycle number the reference loop would
// have used: the CPU/mem phase accumulator is stepped with the same
// modular arithmetic, so ACT/REF/return timing is preserved bit-for-bit.
// An exact cycle ticks only awake cores (system.tick).
//
// Three horizons bound a jump, each the first cycle at which its
// component could do something a jump cannot replay (EXPERIMENTS.md,
// "What each rule skips", counts what they take on each benchmark
// workload):
//
//   - cores: no core tries a memory access (cpu.Core.BulkWindow). Between
//     accesses a core is arithmetic, a load outstanding or not: it fills
//     its window behind the oldest pending load, or runs through a gap
//     run. A core whose refusal holds (system.refusalHolds) rides the
//     jump instead: no queue, MSHR or fill can move inside one, so only
//     a throttled refusal's horizon (memctrl.Controller.RefusalUntil)
//     caps it, as a controller horizon.
//   - LLC: no hit callback pending (cache.HitsPending). A flag is
//     enough: the rare probe it refuses leaves its cycles to the exact
//     path.
//   - controller: no return or REF deadline due, and no command the next
//     controller Tick can issue ready, before memctrl.NextWork. It runs
//     that Tick's own scheduling walk as a probe that issues nothing:
//     the minimum dram.Channel.ReadyAt over the walk's commands, with
//     every rank rule applied, and the first cycle a filter of the walk
//     can move (a BlockHammer denial it skips lifts, BLISS clears its
//     blacklist, a favored read starts to starve). Jumps therefore run
//     while requests wait on DRAM timing or on the throttler.
//
// The probe backoff (runEvent) keeps dense runs, where nearly every
// probe fails, from paying for a probe on every cycle.

// minBulk is the smallest jump worth taking, and the window below which
// a probe stops early. A shorter jump pays a probe for cycles the exact
// path passes about as cheaply.
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

	// Probe backoff: skipping a probe is always safe (the exact path IS
	// the oracle), so after a failed probe the loop runs up to maxBackoff
	// exact cycles before probing again. Dense regimes — where nearly
	// every probe fails — amortize the probe cost away. The cap bounds how
	// late a fresh jump window is spotted: the long idle stretches the
	// engine exists for dwarf it, while a gap run with fewer than minBulk
	// cycles left at the next probe is ridden through exactly — a
	// deliberate trade for dense-regime parity.
	const maxBackoff = 16
	var skipProbes int64
	backoff := int64(1)

	for s.cpuCycle = 0; s.cpuCycle < s.maxCycles; {
		// Longest provably-trivial window starting at this cycle. Probe
		// cheapest-first — core windows, the LLC's pending flag, then the
		// controller's ReadyAt horizon — and stop probing as soon as the
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
		// A core whose refusal holds rides the jump: no queue, MSHR or
		// fill moves inside one, so only a throttled refusal's horizon
		// bounds it.
		refusedUntil := dram.Never
		for i, c := range s.cores {
			if n < minBulk {
				break
			}
			if c.Refused() && s.refusalHolds(i) {
				refusedUntil = min(refusedUntil, s.refusals[i].until)
				continue
			}
			if w := c.BulkWindow(); w < n {
				n = w
			}
		}
		if n >= minBulk && s.llc.HitsPending() {
			// A hit callback fires on a real Tick; jump only once the
			// ring is empty.
			n = 0
		}
		if n >= minBulk {
			// At most kmax memory ticks may be skipped; convert to CPU
			// cycles through the phase accumulator: ticks in n cycles =
			// floor((memAcc + n*memF)/cpuF). A busy controller (the common
			// dense state) bounds this to ~cpuF/memF cycles.
			kmax := min(s.ctrl.NextWork(), refusedUntil) - s.ctrl.Cycle() - 1
			if nmem := (s.cpuF*(kmax+1) - 1 - s.memAcc) / s.memF; nmem < n {
				n = nmem
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
			for i, c := range s.cores {
				if c.Refused() && s.refusalHolds(i) {
					s.repeatRefusal(i, n)
				} else {
					c.Advance(n)
				}
			}
			ticks := (s.memAcc + n*s.memF) / s.cpuF
			s.memAcc += n*s.memF - ticks*s.cpuF
			if ticks > 0 {
				s.ctrl.AdvanceIdle(ticks)
			}
			s.cpuCycle += n
			s.cycles += n
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
