package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/charact"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/faultmodel"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/store"
)

// Layer probes time one layer's public operations in isolation. Each
// returns host time and heap objects per operation.

// probeGroup is the layer probes one workload's traced run makes, and
// the per-layer metrics they measure. run takes the workload's spec seed,
// a scratch directory and the run's tally.
type probeGroup struct {
	name  string
	decls []decl
	run   func(seed uint64, dir string, t *tally) (map[string]float64, error)
}

var (
	simProbes     = &probeGroup{"sim-layers", simProbeDecls, simLayerProbes}
	replayProbes  = &probeGroup{"replay", replayDecls, replayProbe}
	charProbes    = &probeGroup{"char-layers", charProbeDecls, charLayerProbes}
	serviceProbes = &probeGroup{"service-layers", serviceProbeDecls, serviceLayerProbes}
)

// probeTime is how long each probe measures, at least.
const probeTime = 60 * time.Millisecond

// perOp calls fn (which does batch operations) until probeTime has
// passed and at least three times, and returns nanoseconds and heap
// objects per operation.
func perOp(batch int, fn func() error) (ns, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for n < 3 || time.Since(t0) < probeTime {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		n++
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	ops := float64(n * batch)
	return float64(d.Nanoseconds()) / ops, float64(m1.Mallocs-m0.Mallocs) / ops, nil
}

// replayProbe records the ACT/REF stream of the hammer-attack probe cell
// and replays it into each mechanism.
func replayProbe(seed uint64, _ string, _ *tally) (map[string]float64, error) {
	st := &shimStats{record: true}
	if _, _, err := runCell(hammerCell(seed), sim.EngineEvent, st); err != nil {
		return nil, err
	}
	return replayMetrics(st.stream, seed)
}

// replayMetrics replays a recorded ACT/REF stream into a fresh instance
// of each mechanism: nanoseconds and heap objects per replayed call.
func replayMetrics(stream []mechEvent, seed uint64) (map[string]float64, error) {
	if len(stream) == 0 {
		return nil, fmt.Errorf("replay: the recorded stream is empty")
	}
	cfg := sim.Table6Config(0, 1)
	p := cfg.MitigationParams(512, seed)
	build := map[string]func() (mitigation.Mechanism, error){
		"PARA":        func() (mitigation.Mechanism, error) { return mitigation.NewPARA(p, cfg.T.TCKPS) },
		"ProHIT":      func() (mitigation.Mechanism, error) { return mitigation.NewProHIT(p) },
		"MRLoc":       func() (mitigation.Mechanism, error) { return mitigation.NewMRLoc(p) },
		"TWiCe":       func() (mitigation.Mechanism, error) { return mitigation.NewTWiCe(p, false) },
		"Ideal":       func() (mitigation.Mechanism, error) { return mitigation.NewIdeal(p) },
		"BlockHammer": func() (mitigation.Mechanism, error) { return mitigation.NewBlockHammer(p) },
		"TRR":         func() (mitigation.Mechanism, error) { return mitigation.NewTRR(p) },
	}
	v := map[string]float64{}
	for _, name := range replayMechs {
		var elapsed time.Duration
		var mallocs uint64
		calls := 0
		for n := 0; n < 3 || elapsed < probeTime; n++ {
			mech, err := build[name]()
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", name, err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for _, e := range stream {
				if e.refresh {
					mech.OnAutoRefresh(e.bank, e.row, e.count, e.cycle)
				} else {
					mech.OnActivate(e.bank, e.row, e.cycle, e.fromMitigation)
				}
			}
			elapsed += time.Since(t0)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			calls += len(stream)
		}
		v["mitigation.replay_ns."+name] = float64(elapsed.Nanoseconds()) / float64(calls)
		v["mitigation.replay_allocs."+name] = float64(mallocs) / float64(calls)
	}
	return v, nil
}

// simLayerProbes times the saturated memory-controller tick, DRAM
// command issue and LLC reads, on fixed inputs.
func simLayerProbes(uint64, string, *tally) (map[string]float64, error) {
	v := map[string]float64{}
	tickNS, tickAllocs, err := probeSaturatedTick()
	if err != nil {
		return nil, err
	}
	v["memctrl.saturated_tick_ns"], v["memctrl.saturated_tick_allocs"] = tickNS, tickAllocs
	if v["dram.issue_ns"], err = probeIssue(); err != nil {
		return nil, err
	}
	if v["cache.read_ns"], v["cache.read_allocs"], err = probeCacheRead(); err != nil {
		return nil, err
	}
	return v, nil
}

// probeSaturatedTick ticks a Table 6 controller whose read queue is kept
// at capacity from a fixed pool of hot-row addresses across every bank.
func probeSaturatedTick() (ns, allocs float64, err error) {
	geo := dram.Table6Geometry()
	ch, err := dram.NewChannel(geo, dram.DDR4_2400(geo.Rows))
	if err != nil {
		return 0, 0, err
	}
	cfg := memctrl.Table6Config()
	ctrl, err := memctrl.New(cfg, ch, mitigation.NewNone())
	if err != nil {
		return 0, 0, err
	}
	mapper, err := dram.NewAddressMapper(geo)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(42))
	addrs := make([]int64, 4096)
	for i := range addrs {
		addrs[i] = mapper.AddressOf(dram.Address{Bank: rng.Intn(geo.Banks()), Row: 100 + rng.Intn(8), Col: rng.Intn(64)})
	}
	onDone := func() {}
	ai := 0
	step := func() {
		ctrl.Tick()
		for ctrl.PendingReads() < cfg.ReadQueue {
			if !ctrl.EnqueueRead(ai%4, addrs[ai%len(addrs)], onDone) {
				break
			}
			ai++
		}
	}
	for i := 0; i < 20_000; i++ { // warm the free list and completion buffers
		step()
	}
	const batch = 10_000
	return perOp(batch, func() error {
		for i := 0; i < batch; i++ {
			step()
		}
		return nil
	})
}

// probeIssue drives a DDR4 channel directly: every memory cycle the first
// bank (rotating) whose next command of an ACT→RD→PRE cycle is legal
// issues it. The result is host time per issued command, legality
// checks included.
func probeIssue() (float64, error) {
	geo := dram.Table6Geometry()
	ch, err := dram.NewChannel(geo, dram.DDR4_2400(geo.Rows))
	if err != nil {
		return 0, err
	}
	banks := geo.Banks()
	next := make([]dram.Command, banks)
	row := make([]int, banks)
	var cycle int64
	issued := 0
	const batch = 10_000
	ns, _, err := perOp(batch, func() error {
		for goal := issued + batch; issued < goal; cycle++ {
			for k := 0; k < banks; k++ {
				b := (int(cycle) + k) % banks
				if !ch.CanIssue(next[b], 0, b, row[b], cycle) {
					continue
				}
				ch.Issue(next[b], 0, b, row[b], cycle)
				switch next[b] {
				case dram.CmdACT:
					next[b] = dram.CmdRD
				case dram.CmdRD:
					next[b] = dram.CmdPRE
				default:
					next[b] = dram.CmdACT
					row[b] = (row[b] + 7) % geo.Rows
				}
				issued++
				break
			}
		}
		return nil
	})
	return ns, err
}

// fillBackend completes every LLC miss on the probe's next step.
type fillBackend struct{ pending []func() }

func (b *fillBackend) EnqueueRead(_ int, _ int64, onDone func()) bool {
	b.pending = append(b.pending, onDone)
	return true
}

func (b *fillBackend) EnqueueWrite(int, int64) {}

// probeCacheRead reads a Table 6 LLC over a working set 1.5x its size,
// one read and one tick per step, with misses filled on the next step.
func probeCacheRead() (ns, allocs float64, err error) {
	cfg := cache.Table6Config()
	be := &fillBackend{}
	c, err := cache.New(cfg, be, 1)
	if err != nil {
		return 0, 0, err
	}
	lines := int64(cfg.SizeBytes/int64(cfg.LineBytes)) * 3 / 2
	rng := rand.New(rand.NewSource(7))
	addrs := make([]int64, 1<<18)
	for i := range addrs {
		addrs[i] = rng.Int63n(lines) * int64(cfg.LineBytes)
	}
	onDone := func() {}
	ai := 0
	step := func() {
		c.Read(0, addrs[ai%len(addrs)], onDone)
		ai++
		c.Tick()
		for _, fn := range be.pending {
			fn()
		}
		be.pending = be.pending[:0]
	}
	for i := 0; i < len(addrs); i++ { // fill the cache
		step()
	}
	const batch = 10_000
	return perOp(batch, func() error {
		for i := 0; i < batch; i++ {
			step()
		}
		return nil
	})
}

// charLayerProbes times the characterization path, on a fixed chip:
// faultmodel activations and Algorithm 1's double-sided hammer test.
func charLayerProbes(uint64, string, *tally) (map[string]float64, error) {
	chip, err := faultmodel.NewChip(faultmodel.Config{
		Name: "probe-ddr4", Type: dram.DDR4, Banks: 1, Rows: 2048, RowBits: 4096,
		HCFirst: 8000, Rate150k: 1e-4, WorstPattern: faultmodel.RowStripe0, Seed: 11,
	})
	if err != nil {
		return nil, err
	}
	chip.WriteAll(faultmodel.RowStripe0)
	v := map[string]float64{}
	const hc = 20_000
	var nonce uint64
	// One test: fresh accounting, then one aggressor row hammered hc
	// times, as Algorithm 1 does to each side of a victim.
	v["faultmodel.activate_ns"], v["faultmodel.activate_allocs"], err = perOp(64, func() error {
		for i := 0; i < 64; i++ {
			nonce++
			chip.BeginTest(nonce)
			if err := chip.Activate(0, 8+int(nonce%2000), hc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tester, err := charact.NewTester(chip, 0)
	if err != nil {
		return nil, err
	}
	victim := 8
	nsPerTest, _, err := perOp(16, func() error {
		for i := 0; i < 16; i++ {
			victim = 8 + (victim+13)%2000
			if _, err := tester.HammerDoubleSided(victim, hc); err != nil {
				return err
			}
		}
		return nil
	})
	v["charact.hammer_ds_us"] = nsPerTest / 1e3
	return v, err
}

// serviceLayerProbes times the byte boundaries a service request
// crosses, on the service workload's cold result (fig5 at tiny scale):
// spec hashing, result decode, verified store reads and writes, and the
// two-shard merge, whose bytes must equal the whole-grid run's.
func serviceLayerProbes(seed uint64, dir string, t *tally) (map[string]float64, error) {
	spec, err := coldSpec(seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	whole, err := core.RunContext(ctx, spec, core.Exec{Parallelism: workers})
	if err != nil {
		return nil, err
	}
	wholeRaw, err := whole.Encode()
	if err != nil {
		return nil, err
	}
	parts := make([]*core.Result, 2)
	for i := range parts {
		s := spec
		s.Shard = core.Shard{Index: i, Count: len(parts)}
		if parts[i], err = core.RunContext(ctx, s, core.Exec{Parallelism: workers}); err != nil {
			return nil, err
		}
	}
	v := map[string]float64{}
	ms := func(ns float64) float64 { return ns / 1e6 }

	var merged *core.Result
	ns, _, err := perOp(1, func() error {
		merged, err = core.MergeResults(parts...)
		return err
	})
	if err != nil {
		return nil, err
	}
	v["core.merge_ms"] = ms(ns)
	mergedRaw, err := merged.Encode()
	if err != nil {
		return nil, err
	}
	t.check(bytes.Equal(mergedRaw, wholeRaw), "merge probe: the 2-shard merge differs from the whole-grid result")

	if ns, _, err = perOp(100, func() error {
		for i := 0; i < 100; i++ {
			if _, err := spec.SpecHash(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	v["core.spec_hash_us"] = ns / 1e3

	if ns, _, err = perOp(1, func() error {
		_, err := core.DecodeResult(wholeRaw)
		return err
	}); err != nil {
		return nil, err
	}
	v["core.decode_result_ms"] = ms(ns)

	st, err := store.Open(filepath.Join(dir, "probe-get"))
	if err != nil {
		return nil, err
	}
	if _, err := st.Put(spec, whole); err != nil {
		return nil, err
	}
	if ns, _, err = perOp(1, func() error {
		if _, raw, ok := st.Get(spec); !ok || !bytes.Equal(raw, wholeRaw) {
			return fmt.Errorf("store probe: Get missed or returned other bytes")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	v["store.get_ms"] = ms(ns)

	// Puts into empty stores, opened before the clock starts.
	const puts = 32
	stores := make([]*store.Store, puts)
	for i := range stores {
		if stores[i], err = store.Open(filepath.Join(dir, fmt.Sprintf("probe-put-%d", i))); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	for _, s := range stores {
		if _, err := s.Put(spec, whole); err != nil {
			return nil, err
		}
	}
	v["store.put_ms"] = ms(float64(time.Since(t0).Nanoseconds()) / puts)
	for i := range stores {
		os.RemoveAll(stores[i].Root())
	}
	return v, os.RemoveAll(st.Root())
}
