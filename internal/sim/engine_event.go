package sim

// The event engine (EngineEvent) produces byte-identical results to the
// reference loop by construction: it only ever does one of two things per
// iteration —
//
//   - execute one cycle exactly as runCycle would (same component order,
//     same clock-divider arithmetic), after passing the no-op cycles
//     before it in closed form when the all-asleep rule (below) holds, or
//
//   - bulk-advance n cycles after proving that each of those cycles would
//     have been trivial for every component, then replay them in closed
//     form: cpu.Core.Advance for the cores, memctrl.AdvanceIdle (clock
//     and BLISS clearing schedule) for the controller. The LLC needs no
//     replay: a jump is refused while it holds a pending hit.
//
// A cycle on which anything non-trivial could happen is therefore always
// executed exactly, on exactly the cycle number the reference loop would
// have used: the CPU/mem phase accumulator is stepped with the same
// modular arithmetic, so ACT/REF/return timing is preserved bit-for-bit.
// An exact cycle ticks only awake cores (system.tick).
//
// Three horizons bound a jump. Each earns its place on the benchmark's
// sim workloads (counts from one run of each workload's spec at
// benchmark seed 1):
//
//   - cores: every core blocked on its window head or in an arithmetic
//     gap run (cpu.Core.BulkWindow). Paced attacks live here:
//     paced-dodge jumps over 893M of its 960M CPU cycles.
//   - LLC: no hit callback pending (cache.HitsPending). A flag is
//     enough: it refuses 1,924 of the 891K mitigation-sweep probes that
//     pass the core scan, 49 on hammer-attack and none on paced-dodge.
//   - controller: no command, return or REF deadline due before
//     memctrl.NextWork. Its per-bank scan lets jumps run while requests
//     wait on DRAM timing: 118M of paced-dodge's jumped cycles and
//     6.44M of mitigation-sweep's 6.48M.
//
// Beside them sits the all-asleep rule, for the dense stretches no jump
// covers because the controller is busy. While every core is asleep and
// no hit is pending, a CPU cycle without a controller tick is a no-op:
// no completion can fire, so no core can wake or retire and neither
// retirement check can change. The k-1 cycles before the controller's
// next tick pass in closed form, and that tick's cycle runs exactly. The
// rule is tried once probes keep failing: it passes 32.3M of
// mitigation-sweep's 62.8M cycles and 2.33M of hammer-attack's 14.0M.
// On paced-dodge it passes 8.2M cycles. Tried after every failed probe,
// it took 14.5M cycles from jumps there, ticked no fewer cycles exactly,
// and the workload's run time rose 7-10% (4-8% with the gate).
//
// The probe backoff (runEvent) keeps dense runs from paying for probes
// that fail: mitigation-sweep probes on 1.46M of its 24.1M loop
// iterations, and without the backoff would probe on every one.

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

// allAsleep reports whether every core is asleep (cpu.Core.Asleep).
//
//rhlint:hotpath
func (s *system) allAsleep() bool {
	for _, c := range s.cores {
		if !c.Asleep() {
			return false
		}
	}
	return true
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
	// engine exists for dwarf it, while sub-maxBulk gap runs may be ridden
	// through exactly — a deliberate trade for dense-regime parity.
	const maxBackoff = 16
	var skipProbes int64
	backoff := int64(1)

	for s.cpuCycle = 0; s.cpuCycle < s.maxCycles; {
		// Longest provably-trivial window starting at this cycle. Probe
		// cheapest-first — core windows, the LLC's pending flag, then the
		// controller's per-bank horizon — and stop probing as soon as the
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
		for _, c := range s.cores {
			if n < minBulk {
				break
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
			kmax := s.ctrl.NextWork() - s.ctrl.Cycle() - 1
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
			// The all-asleep rule, tried once probes keep failing (the
			// backoff at its cap). Right after a jump another is usually
			// near: there the rule passes cycles a jump would cover, and
			// its checks cost more than it saves.
			if backoff == maxBackoff && s.allAsleep() && !s.llc.HitsPending() {
				// Nothing can happen before the controller's next tick, k
				// cycles away: pass the k-1 cycles before it in closed form.
				k := (s.cpuF - s.memAcc + s.memF - 1) / s.memF
				skip := min(k-1, s.maxCycles-s.cpuCycle)
				s.memAcc += skip * s.memF
				s.cpuCycle += skip
				s.cycles += skip
				if s.cpuCycle == s.maxCycles {
					return
				}
			}
			s.tick()
			s.cpuCycle++
		} else {
			backoff = 1
			for _, c := range s.cores {
				c.Advance(n)
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
