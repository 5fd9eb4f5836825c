package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/attack"
	"repro/internal/faultmodel"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/trace"
)

// A probe cell is one grid cell of a sim workload, rebuilt from the
// public constructors so the harness can run it under each engine and
// behind timing shims. Its simulated statistics repeat exactly, so they
// double as a check that a speed-only change left the simulation alone.

// cell is everything one sim.Run needs. Mechanisms, chips and observers
// are stateful, so every run builds a fresh cell.
type cell struct {
	cfg sim.Config
	mix trace.Mix
	obs *attack.Observer // nil for benign-only cells
}

type cellMaker func() (cell, error)

// fig10Cell is a mitigation-sweep cell: one 8-core benign mix under PARA
// at HCfirst 512.
func fig10Cell(seed uint64) cellMaker {
	return func() (cell, error) {
		cfg := sim.Table6Config(2000, 30000)
		mech, err := mitigation.NewPARA(cfg.MitigationParams(512, seed), cfg.T.TCKPS)
		if err != nil {
			return cell{}, err
		}
		cfg.Mechanism = mech
		return cell{cfg: cfg, mix: trace.Mixes(1, 8, 2000, seed)[0]}, nil
	}
}

// attackCellSpec shapes an adversarial cell the way the attack and
// trr-dodge experiments build theirs: a victim chip whose weakest row the
// attacker targets, a hammer observer on the command stream, and the
// attacker at core 0 ahead of the benign cores.
type attackCellSpec struct {
	kind        attack.Kind
	hc          int
	memCycles   int64
	benign      int
	duty, phase float64
	mech        func(p mitigation.Params, tckPS int64) (mitigation.Mechanism, error)
}

func attackCell(seed uint64, a attackCellSpec) cellMaker {
	return func() (cell, error) {
		cfg := sim.Table6Config(0, 1<<40) // duration-terminated: MaxCPUCycles decides
		cfg.MaxCPUCycles = a.memCycles * int64(cfg.CPUFreqMHz) / int64(cfg.MemFreqMHz)
		chip, err := faultmodel.NewChip(faultmodel.Config{
			Name:         fmt.Sprintf("probe-hc%d", a.hc),
			Banks:        cfg.Geo.Banks(),
			Rows:         cfg.Geo.Rows,
			RowBits:      1024,
			HCFirst:      float64(a.hc),
			Rate150k:     5e-5,
			WorstPattern: faultmodel.RowStripe0,
			Seed:         seed,
		})
		if err != nil {
			return cell{}, err
		}
		chip.WriteAll(faultmodel.RowStripe0)
		weak := chip.WeakestCell()
		spec := attack.Spec{Kind: a.kind, DutyCycle: a.duty, Phase: a.phase, Seed: seed ^ 0xdec0}
		tr, aggressors, err := spec.Synthesize(cfg.Geo, attack.Target{Bank: weak.Bank, Row: weak.Row})
		if err != nil {
			return cell{}, err
		}
		obs := attack.NewObserver(chip)
		obs.WatchAggressors(aggressors)
		mix := trace.Mix{Name: "probe-" + string(a.kind), Traces: []*trace.Trace{tr}}
		if a.benign > 0 {
			mix.Traces = append(mix.Traces, trace.Mixes(1, a.benign, 2000, seed)[0].Traces...)
		}
		mech, err := a.mech(cfg.MitigationParams(a.hc, seed), cfg.T.TCKPS)
		if err != nil {
			return cell{}, err
		}
		cfg.Mechanism = mech
		return cell{cfg: cfg, mix: mix, obs: obs}, nil
	}
}

// hammerCell is a hammer-attack cell: double-sided hammering against
// BlockHammer at HCfirst 512 beside three benign cores. Its ACT stream is
// also what the mechanism replay probe feeds every mechanism.
func hammerCell(seed uint64) cellMaker {
	return attackCell(seed, attackCellSpec{
		kind: attack.DoubleSided, hc: 512, memCycles: 200_000, benign: 3,
		mech: func(p mitigation.Params, _ int64) (mitigation.Mechanism, error) { return mitigation.NewBlockHammer(p) },
	})
}

// dodgeCell is a paced-dodge cell: a many-sided attack at duty cycle
// 0.25 against a TRR sampler (rate 0.25, 4 entries), attacker only.
func dodgeCell(seed uint64) cellMaker {
	return attackCell(seed, attackCellSpec{
		kind: attack.ManySided, hc: 256, memCycles: 6_000_000, duty: 0.25,
		mech: func(p mitigation.Params, _ int64) (mitigation.Mechanism, error) {
			return mitigation.NewTRRWithConfig(p, mitigation.TRRConfig{SampleRate: 0.25, TableSize: 4})
		},
	})
}

// runCell simulates a fresh cell under the given engine, behind timing
// shims when st is non-nil, and returns the result with its wall time.
func runCell(build cellMaker, engine sim.Engine, st *shimStats) (*sim.Result, time.Duration, error) {
	c, err := build()
	if err != nil {
		return nil, 0, err
	}
	cfg := c.cfg
	cfg.Engine = engine
	if c.obs != nil {
		cfg.Observer = c.obs
	}
	if st != nil {
		cfg.Mechanism = wrapMechanism(cfg.Mechanism, st)
		if c.obs != nil {
			cfg.Observer = &observerShim{inner: c.obs, st: st}
		}
	}
	t0 := time.Now()
	res, err := sim.Run(cfg, c.mix)
	return res, time.Since(t0), err
}

// probeCellMetrics runs the cell under the event engine, the cycle
// engine and the event engine behind shims. The three results must be
// DeepEqual; the plain runs give each engine's host time per simulated
// memory cycle and the shimmed run the per-interface counts.
func probeCellMetrics(build cellMaker, t *tally) (map[string]float64, error) {
	event, tEvent, err := runCell(build, sim.EngineEvent, nil)
	if err != nil {
		return nil, err
	}
	cycle, tCycle, err := runCell(build, sim.EngineCycle, nil)
	if err != nil {
		return nil, err
	}
	st := &shimStats{}
	shimmed, _, err := runCell(build, sim.EngineEvent, st)
	if err != nil {
		return nil, err
	}
	t.check(reflect.DeepEqual(event, cycle), "probe cell: the event and cycle engines gave different results")
	t.check(reflect.DeepEqual(event, shimmed), "probe cell: the timing shims changed the result")
	return cellValues(event, tEvent, tCycle, st), nil
}

// cellValues are the probe-cell metrics of a result, its run times under
// each engine and its shim counts; all zero for an empty result.
func cellValues(event *sim.Result, tEvent, tCycle time.Duration, st *shimStats) map[string]float64 {
	mc := float64(event.MemCycles)
	return map[string]float64{
		"sim.ns_per_memcycle.event":      ratio(float64(tEvent.Nanoseconds()), mc),
		"sim.ns_per_memcycle.cycle":      ratio(float64(tCycle.Nanoseconds()), mc),
		"sim.mem_cycles":                 mc,
		"memctrl.reads":                  float64(event.Ctrl.Reads),
		"memctrl.demand_acts":            float64(event.Ctrl.DemandACTs),
		"memctrl.mitigation_acts":        float64(event.Ctrl.MitigationACTs),
		"memctrl.row_hit_ratio":          ratio(float64(event.Chan.RDs+event.Chan.WRs-event.Ctrl.DemandACTs), float64(event.Chan.RDs+event.Chan.WRs)),
		"cache.miss_ratio":               ratio(float64(event.LLC.Misses), float64(event.LLC.Accesses)),
		"cpu.ipc_sum":                    event.TotalIPC(),
		"mitigation.on_activate_calls":   float64(st.activateCalls),
		"mitigation.on_activate_ns":      ratio(float64(st.activateNS), float64(st.activateCalls)),
		"mitigation.victims_per_kact":    1000 * ratio(float64(st.victims), float64(st.activateCalls)),
		"mitigation.throttle_deny_ratio": ratio(float64(st.allowDenied), float64(st.allowCalls)),
		"attack.on_act_calls":            float64(st.obsCalls),
		"attack.on_act_ns":               ratio(float64(st.obsNS), float64(st.obsCalls)),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shimStats aggregates what the timing shims saw: counts and total
// nanoseconds rather than a span per call, since a cell makes millions.
// When record is set, the mechanism shim also keeps the ACT and REF
// stream for the replay probe.
type shimStats struct {
	activateCalls, activateNS, victims int64
	allowCalls, allowDenied            int64
	obsCalls, obsNS                    int64

	record bool
	stream []mechEvent
}

// mechEvent is one recorded Mechanism call: an ACT, or (refresh) one
// bank's share of a REF covering rows [row, row+count).
type mechEvent struct {
	refresh        bool
	fromMitigation bool
	bank, row      int
	count          int
	cycle          int64
}

// mechShim times a mitigation.Mechanism without changing what it does.
type mechShim struct {
	inner mitigation.Mechanism
	st    *shimStats
}

func (m *mechShim) Name() string { return m.inner.Name() }

func (m *mechShim) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int {
	t0 := time.Now()
	victims := m.inner.OnActivate(bank, row, cycle, fromMitigation)
	m.st.activateNS += int64(time.Since(t0))
	m.st.activateCalls++
	m.st.victims += int64(len(victims))
	if m.st.record {
		m.st.stream = append(m.st.stream, mechEvent{bank: bank, row: row, cycle: cycle, fromMitigation: fromMitigation})
	}
	return victims
}

func (m *mechShim) OnAutoRefresh(bank, rowStart, rowCount int, cycle int64) []int {
	if m.st.record {
		m.st.stream = append(m.st.stream, mechEvent{refresh: true, bank: bank, row: rowStart, count: rowCount, cycle: cycle})
	}
	return m.inner.OnAutoRefresh(bank, rowStart, rowCount, cycle)
}

func (m *mechShim) RefreshMultiplier() float64 { return m.inner.RefreshMultiplier() }

// throttleShim is the shim for a mechanism that also throttles. The
// controller type-asserts mitigation.Throttler, so a wrapper may offer
// it only when the wrapped mechanism does.
type throttleShim struct {
	*mechShim
	th mitigation.Throttler
}

func (t *throttleShim) ActAllowed(requester, bank, row int, cycle int64) bool {
	ok := t.th.ActAllowed(requester, bank, row, cycle)
	t.st.allowCalls++
	if !ok {
		t.st.allowDenied++
	}
	return ok
}

func (t *throttleShim) AdmitRequest(requester, bank, row int, queueLoad float64, cycle int64) bool {
	return t.th.AdmitRequest(requester, bank, row, queueLoad, cycle)
}

func (t *throttleShim) OnRequesterACT(requester, bank, row int, cycle int64) {
	t.th.OnRequesterACT(requester, bank, row, cycle)
}

// wrapMechanism puts m behind a timing shim that forwards exactly the
// interfaces m implements.
func wrapMechanism(m mitigation.Mechanism, st *shimStats) mitigation.Mechanism {
	s := &mechShim{inner: m, st: st}
	if th, ok := m.(mitigation.Throttler); ok {
		return &throttleShim{mechShim: s, th: th}
	}
	return s
}

// observerShim times the hammer observer's ACT accounting.
type observerShim struct {
	inner sim.CommandObserver
	st    *shimStats
}

func (o *observerShim) OnACT(rank, bank, row int, cycle int64) {
	t0 := time.Now()
	o.inner.OnACT(rank, bank, row, cycle)
	o.st.obsNS += int64(time.Since(t0))
	o.st.obsCalls++
}

func (o *observerShim) OnRefresh(rank, bank, rowStart, rowCount int, cycle int64) {
	o.inner.OnRefresh(rank, bank, rowStart, rowCount, cycle)
}
