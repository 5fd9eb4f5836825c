// Package sim wires the full simulated system of Table 6 — trace-driven
// cores, shared LLC, FR-FCFS memory controller, cycle-accurate DDR4
// channel, and a RowHammer mitigation mechanism — and measures the two
// metrics of Section 6.2.1: normalized weighted speedup and DRAM
// bandwidth overhead.
//
// Two execution engines drive the same component graph. EngineCycle is
// the original loop: one CPU cycle per iteration, the reference
// semantics. EngineEvent (the default) jumps over stretches it can prove
// idle — no core reaching its next memory access, no LLC hit pending, no
// controller command, return or REF deadline due, no throttled refusal
// reaching its horizon — and, while every core is asleep and no hit is
// pending, passes the cycles before the controller's next tick in closed
// form. It preserves the
// exact CPU/mem clock-ratio phase, so every DRAM command lands on the
// identical cycle and all results are byte-identical to the cycle engine
// (enforced by the differential tests in this package).
//
// The DRAM channel has no observers: Config.Observer watches the command
// stream through memctrl.Controller.Observe, hearing of each ACT and REF
// after the mitigation mechanism has.
//
// On an exact cycle both engines tick only awake cores. A core whose
// window is full behind an outstanding head load is asleep until a load
// completes (cpu.Core.Asleep): its Tick would change nothing, and every
// core's IPC divides by one shared cycle count. A core refused by the
// memory side sleeps until something that could change the answer
// happens (cpu.Core.Refused, system.refusalHolds): a queue, MSHR or fill
// moves, or the controller reaches the horizon of a throttler's refusal.
// Each cycle it sleeps counts what its retry would have counted, and
// under the event engine it rides jumps. engine_event.go records what
// each rule skips.
package sim

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/trace"
)

// Engine selects the simulation driver.
type Engine int

const (
	// EngineDefault resolves to EngineEvent unless the RH_ENGINE
	// environment variable is "cycle" (the escape hatch back to the
	// reference loop).
	EngineDefault Engine = iota
	// EngineEvent skips idle time: identical results, less wall-clock.
	EngineEvent
	// EngineCycle is the original cycle-by-cycle loop, kept as the
	// differential-testing oracle.
	EngineCycle
)

// String names the engine (resolved form).
func (e Engine) String() string {
	if e.resolve() == EngineCycle {
		return "cycle"
	}
	return "event"
}

var envEngine = sync.OnceValue(func() Engine {
	if os.Getenv("RH_ENGINE") == "cycle" {
		return EngineCycle
	}
	return EngineEvent
})

func (e Engine) resolve() Engine {
	if e == EngineDefault {
		return envEngine()
	}
	return e
}

// Config describes one simulation run.
type Config struct {
	CPUFreqMHz int // Table 6: 4000
	MemFreqMHz int // DDR4-2400: 1200 (command clock)

	Core cpu.Config
	LLC  cache.Config
	Ctrl memctrl.Config
	Geo  dram.Geometry
	T    dram.Timing

	// WarmupInsts / MeasureInsts per core. Warmup fills caches before
	// statistics reset (the paper warms 100M and measures 200M; scale
	// down proportionally for tractable runs).
	WarmupInsts  int64
	MeasureInsts int64

	// MaxCPUCycles bounds runaway runs (0 = derived from MeasureInsts).
	// Attack evaluations use it as the primary termination: with a huge
	// MeasureInsts the run lasts exactly this many CPU cycles.
	MaxCPUCycles int64

	// Engine selects the simulation driver; the zero value follows the
	// RH_ENGINE environment variable and defaults to the event engine.
	Engine Engine

	Mechanism mitigation.Mechanism

	// Observer, when non-nil, receives the controller's full DRAM command
	// stream (every ACT including mitigation refreshes, and the rows each
	// auto-refresh rotation covers) through memctrl.Controller.Observe.
	// The attack subsystem couples the fault model to the simulation
	// through it.
	Observer CommandObserver
}

// CommandObserver watches the DRAM command stream of a simulation run.
type CommandObserver = memctrl.CommandObserver

// Table6Config returns the paper's system configuration with the given
// per-core instruction budget.
func Table6Config(warmup, measure int64) Config {
	geo := dram.Table6Geometry()
	return Config{
		CPUFreqMHz:   4000,
		MemFreqMHz:   1200,
		Core:         cpu.Table6Config(),
		LLC:          cache.Table6Config(),
		Ctrl:         memctrl.Table6Config(),
		Geo:          geo,
		T:            dram.DDR4_2400(geo.Rows),
		WarmupInsts:  warmup,
		MeasureInsts: measure,
	}
}

// MitigationParams derives the mechanism parameter block from a system
// configuration and a target HCfirst.
func (c Config) MitigationParams(hcFirst int, seed uint64) mitigation.Params {
	return mitigation.Params{
		HCFirst: hcFirst,
		Rows:    c.Geo.Rows,
		Banks:   c.Geo.Banks(),
		TRC:     int64(c.T.RC),
		TREFI:   int64(c.T.REFI),
		TREFW:   c.T.REFW,
		Seed:    seed,
	}
}

// Result reports one run.
type Result struct {
	Mechanism string
	CPUCycles int64
	MemCycles int64

	IPC     []float64 // per core, measured window
	Retired []int64

	MPKI float64 // aggregate LLC misses per kilo-instruction

	Ctrl memctrl.Stats
	Chan dram.ChannelStats
	LLC  cache.Stats

	// BandwidthOverheadPct is Figure 10a's metric: the share of total
	// DRAM bank-time consumed by the mitigation mechanism (targeted
	// refreshes plus refresh commands beyond the nominal tREFI pace), as
	// a percentage. Refresh-storm configurations can exceed 100% on a
	// demanded-time basis.
	BandwidthOverheadPct float64
}

// TotalIPC sums per-core IPCs.
func (r Result) TotalIPC() float64 {
	s := 0.0
	for _, v := range r.IPC {
		s += v
	}
	return s
}

// system is the assembled component graph plus the loop state both
// engines share. Either engine leaves cpuCycle/measStartCycle with the
// reference-loop values, so result() is engine-agnostic.
type system struct {
	cfg   Config
	ch    *dram.Channel
	ctrl  *memctrl.Controller
	llc   *cache.Cache
	cores []*cpu.Core
	mech  mitigation.Mechanism

	maxCycles  int64
	cpuF, memF int64

	cpuCycle       int64
	memAcc         int64
	warmedUp       bool
	measStartCycle int64

	// cycles is every core's IPC denominator: the CPU cycles since
	// beginMeasure (since the start when warmup never ends), counted by
	// whichever path passes them. It differs from
	// cpuCycle-measStartCycle by one cycle when a run stops at maxCycles
	// after warmup ended, or stops by retiring without a warmup.
	cycles int64

	// laggard memoizes a core known to be short of the current
	// retirement target, so the per-cycle allRetired probe is O(1) until
	// that core crosses.
	laggard int

	// refusals holds, per core, the refusal a Refused core sleeps on.
	refusals []refusal
}

// refusal is what a refused core (cpu.Core.Refused) waits on and what
// each of its retries counts: the memory side's change counts when it
// was refused, the controller cycle a throttled refusal also waits for,
// and the counter its access was refused under. The retries count under
// the core's ID, the requester every access of the core carries.
type refusal struct {
	// changes is llc.Changes() + ctrl.Changes(): both counts only grow,
	// so the sum moves exactly when either does.
	changes uint64
	// until is the first controller cycle at which a retry may be
	// answered otherwise while changes holds: a throttled refusal's
	// horizon (ctrl.RefusalUntil; the next cycle for a throttler without
	// horizons), and dram.Never for a full queue or exhausted MSHRs.
	until int64
	kind  refusalKind
}

type refusalKind uint8

const (
	refusedMSHR      refusalKind = iota // every MSHR in flight: counts nothing
	refusedFull                         // counts in ReadQueueFull
	refusedThrottled                    // counts in ThrottledReads and the requester's entry
)

func newSystem(cfg Config, mix trace.Mix) (*system, error) {
	if len(mix.Traces) == 0 {
		return nil, errors.New("sim: empty mix")
	}
	if cfg.MeasureInsts <= 0 {
		return nil, errors.New("sim: MeasureInsts must be positive")
	}
	if cfg.CPUFreqMHz <= 0 || cfg.MemFreqMHz <= 0 || cfg.MemFreqMHz > cfg.CPUFreqMHz {
		return nil, fmt.Errorf("sim: bad clocks %d/%d MHz", cfg.CPUFreqMHz, cfg.MemFreqMHz)
	}

	ch, err := dram.NewChannel(cfg.Geo, cfg.T)
	if err != nil {
		return nil, err
	}
	mech := cfg.Mechanism
	if mech == nil {
		mech = mitigation.NewNone()
	}
	ctrl, err := memctrl.New(cfg.Ctrl, ch, mech)
	if err != nil {
		return nil, err
	}
	ctrl.Observe(cfg.Observer)
	llc, err := cache.New(cfg.LLC, ctrl, len(mix.Traces))
	if err != nil {
		return nil, err
	}
	cores := make([]*cpu.Core, len(mix.Traces))
	for i, tr := range mix.Traces {
		cores[i], err = cpu.New(i, cfg.Core, tr, llc)
		if err != nil {
			return nil, err
		}
	}

	maxCycles := cfg.MaxCPUCycles
	if maxCycles == 0 {
		// Even at 0.5% of peak IPC the run completes.
		maxCycles = (cfg.WarmupInsts + cfg.MeasureInsts) * 800
	}

	return &system{
		cfg:       cfg,
		ch:        ch,
		ctrl:      ctrl,
		llc:       llc,
		cores:     cores,
		mech:      mech,
		maxCycles: maxCycles,
		cpuF:      int64(cfg.CPUFreqMHz),
		memF:      int64(cfg.MemFreqMHz),
		warmedUp:  cfg.WarmupInsts == 0,
		refusals:  make([]refusal, len(cores)),
	}, nil
}

// allRetired reports whether every core has retired at least n
// instructions, probing the memoized laggard before rescanning.
func (s *system) allRetired(n int64) bool {
	if s.cores[s.laggard].Retired < n {
		return false
	}
	for i, c := range s.cores {
		if c.Retired < n {
			s.laggard = i
			return false
		}
	}
	return true
}

// beginMeasure ends warmup: statistics reset, the measured window starts
// at the current cycle.
func (s *system) beginMeasure() {
	s.warmedUp = true
	s.cycles = 0
	for _, c := range s.cores {
		c.ResetStats()
	}
	s.llc.ResetStats()
	s.ctrl.Stats = memctrl.Stats{}
	s.ch.Stats = dram.ChannelStats{}
	s.measStartCycle = s.cpuCycle
}

// tick executes one exact CPU cycle in reference order: the LLC, every
// awake core, then the controller on the cycles the clock divider grants
// it. An asleep core's Tick would change nothing (cpu.Core.Asleep), and a
// refused one's would only count its refusal again while it holds
// (refusalHolds).
//
//rhlint:hotpath
func (s *system) tick() {
	s.llc.Tick()
	for i, c := range s.cores {
		if c.Asleep() {
			continue
		}
		if c.Refused() && s.refusalHolds(i) {
			s.repeatRefusal(i, 1)
			continue
		}
		c.Tick()
		if c.Refused() {
			s.recordRefusal(i)
		}
	}
	s.cycles++
	s.memAcc += s.memF
	if s.memAcc >= s.cpuF {
		s.memAcc -= s.cpuF
		s.ctrl.Tick()
	}
}

// recordRefusal records the refusal core i sleeps on after a Tick that
// left it refused. Its access was the last one the LLC refused: for want
// of an MSHR, counting nothing, or by the controller, which names the
// counter the refusal moved.
//
//rhlint:hotpath
func (s *system) recordRefusal(i int) {
	kind, until := refusedFull, dram.Never
	switch {
	case s.llc.MSHRRefused():
		kind = refusedMSHR
	case s.ctrl.RefusalThrottled():
		kind, until = refusedThrottled, s.ctrl.RefusalUntil()
	}
	s.refusals[i] = refusal{
		changes: s.llc.Changes() + s.ctrl.Changes(),
		until:   until,
		kind:    kind,
	}
}

// refusalHolds reports, for a core that is refused (cpu.Core.Refused: no
// load of its own has completed since), whether its retry would be
// refused the same way: no read has entered or left the read queue, no
// write was queued, the LLC has allocated no MSHR and filled no line (the
// two Changes counts), and, for a throttled refusal, the controller has
// not reached the refusal's horizon.
//
//rhlint:hotpath
func (s *system) refusalHolds(i int) bool {
	r := &s.refusals[i]
	return r.changes == s.llc.Changes()+s.ctrl.Changes() && s.ctrl.Cycle() < r.until
}

// repeatRefusal counts n retries of core i's refused access, which
// refusalHolds vouches would all have been refused as it was.
//
//rhlint:hotpath
func (s *system) repeatRefusal(i int, n int64) {
	switch s.refusals[i].kind {
	case refusedFull:
		s.ctrl.RepeatRefusals(s.cores[i].ID, false, n)
	case refusedThrottled:
		s.ctrl.RepeatRefusals(s.cores[i].ID, true, n)
	}
}

// runCycle is the reference loop (EngineCycle): one CPU cycle per
// iteration, the differential-testing oracle for the event engine.
func (s *system) runCycle() {
	target := s.cfg.WarmupInsts
	for s.cpuCycle = 0; s.cpuCycle < s.maxCycles; s.cpuCycle++ {
		s.tick()
		if !s.warmedUp && s.allRetired(target) {
			s.beginMeasure()
		}
		if s.warmedUp && s.allRetired(s.cfg.MeasureInsts) {
			break
		}
	}
}

func (s *system) result() *Result {
	res := &Result{
		Mechanism: s.mech.Name(),
		CPUCycles: s.cpuCycle - s.measStartCycle,
		MemCycles: s.ctrl.Cycle(),
		Ctrl:      s.ctrl.Stats,
		Chan:      s.ch.Stats,
		LLC:       s.llc.Stats,
	}
	var totalInsts int64
	for _, c := range s.cores {
		ipc := 0.0
		if s.cycles > 0 {
			ipc = float64(c.Retired) / float64(s.cycles)
		}
		res.IPC = append(res.IPC, ipc)
		res.Retired = append(res.Retired, c.Retired)
		totalInsts += c.Retired
	}
	res.MPKI = s.llc.Stats.MPKI(totalInsts)
	res.BandwidthOverheadPct = bandwidthOverhead(s.cfg, s.mech, s.ctrl.Stats, res.CPUCycles)
	return res
}

// Run simulates the mix on the configuration.
func Run(cfg Config, mix trace.Mix) (*Result, error) {
	s, err := newSystem(cfg, mix)
	if err != nil {
		return nil, err
	}
	if cfg.Engine.resolve() == EngineCycle {
		s.runCycle()
	} else {
		s.runEvent()
	}
	return s.result(), nil
}

// bandwidthOverhead computes Figure 10a's metric on a demanded-time
// basis: mitigation bank-cycles (targeted refreshes plus above-nominal
// refresh time) over the total bank-time of the measured window.
func bandwidthOverhead(cfg Config, mech mitigation.Mechanism, st memctrl.Stats, cpuCycles int64) float64 {
	memCycles := cpuCycles * int64(cfg.MemFreqMHz) / int64(cfg.CPUFreqMHz)
	if memCycles == 0 {
		return 0
	}
	bankTime := float64(memCycles) * float64(cfg.Geo.Banks())

	mit := float64(st.MitigationBusyCycles)

	// Demanded refresh time above the nominal refresh schedule. Using the
	// demanded (not issued) time lets refresh-storm configurations report
	// >100%, like the paper's inverted log axis.
	mult := mech.RefreshMultiplier()
	if mult > 1 {
		nominalREFs := float64(memCycles) / float64(cfg.T.REFI)
		demandedREFs := nominalREFs * mult
		mit += (demandedREFs - nominalREFs) * float64(cfg.T.RFC) * float64(cfg.Geo.Banks())
	}
	return 100 * mit / bankTime
}

// WeightedSpeedup implements the Section 6.2.1 metric: the sum over cores
// of IPC_shared / IPC_alone.
func WeightedSpeedup(shared, alone []float64) (float64, error) {
	if len(shared) != len(alone) {
		return 0, errors.New("sim: mismatched IPC slices")
	}
	ws := 0.0
	for i := range shared {
		if alone[i] <= 0 {
			return 0, fmt.Errorf("sim: core %d alone-IPC is zero", i)
		}
		ws += shared[i] / alone[i]
	}
	return ws, nil
}

// RunAlone measures each trace's single-core IPC on the baseline system
// (no mitigation), the denominator of weighted speedup. The command
// observer is detached along with the mechanism: alone runs exist only to
// normalize IPC, and feeding their ACT/REF streams to a hammer or TRR
// accountant would corrupt its timeline with traffic the shared run never
// issued.
func RunAlone(cfg Config, mix trace.Mix) ([]float64, error) {
	alone := make([]float64, len(mix.Traces))
	cfg.Mechanism = nil
	cfg.Observer = nil
	for i, tr := range mix.Traces {
		res, err := Run(cfg, trace.Mix{Name: mix.Name + "-alone", Traces: []*trace.Trace{tr}})
		if err != nil {
			return nil, err
		}
		alone[i] = res.IPC[0]
	}
	return alone, nil
}
