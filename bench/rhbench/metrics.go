package main

import (
	"fmt"
	"math"
	"sort"
)

// decl declares one metric the harness emits: its name and unit. The
// declarations below are the harness's whole output vocabulary; the
// schema test pins them to BENCHMARK.json.
type decl struct {
	name, unit string
}

// layers are the repository's modules (repro/internal/<layer>) that CPU
// and allocation samples are attributed to.
var layers = []string{
	"sim", "cpu", "cache", "memctrl", "dram", "mitigation", "attack",
	"faultmodel", "charact", "chips", "ecc", "trace", "stats", "engine",
	"core", "store", "serve",
}

// replayMechs are the mechanisms the recorded ACT stream is replayed into.
var replayMechs = []string{"PARA", "ProHIT", "MRLoc", "TWiCe", "Ideal", "BlockHammer", "TRR"}

// endToEnd are the metrics of every untraced run (-trace 0), in every
// workload. A rep is one experiment from spec to verified result bytes
// for the registry workloads, and one pass of the request schedule for
// the service; each metric is the median over a run's reps.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"run_cpu_s", "s"},
	{"allocs_per_run", "count"},
	{"alloc_mb_per_run", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of every traced run (-trace 1), in every
// workload. A metric of a layer the workload does not exercise reads 0.
var perLayer = perLayerDecls()

// The per-layer metrics each probe group measures. A group runs only in
// the traced run of the workload whose layers it probes (see
// workload.probes); every other workload reports its metrics as 0.
var (
	replayDecls = func() []decl {
		var d []decl
		for _, m := range replayMechs {
			d = append(d, decl{"mitigation.replay_ns." + m, "ns"}, decl{"mitigation.replay_allocs." + m, "count"})
		}
		return d
	}()
	simProbeDecls = []decl{
		{"memctrl.saturated_tick_ns", "ns"},
		{"memctrl.saturated_tick_allocs", "count"},
		{"dram.issue_ns", "ns"},
		{"cache.read_ns", "ns"},
		{"cache.read_allocs", "count"},
	}
	charProbeDecls = []decl{
		{"faultmodel.activate_ns", "ns"},
		{"faultmodel.activate_allocs", "count"},
		{"charact.hammer_ds_us", "us"},
	}
	serviceProbeDecls = []decl{
		{"core.spec_hash_us", "us"},
		{"core.decode_result_ms", "ms"},
		{"store.get_ms", "ms"},
		{"core.merge_ms", "ms"},
		{"store.put_ms", "ms"},
	}
	// serviceDecls are measured by the service workload's passes.
	serviceDecls = []decl{
		{"serve.queue_wait_p50_ms", "ms"},
		{"serve.warm_p50_ms", "ms"},
		{"serve.warm_p99_ms", "ms"},
		{"serve.cold_p50_ms", "ms"},
		{"serve.cold_p95_ms", "ms"},
		{"store.entries", "count"},
		{"store.quarantined", "count"},
	}
)

func perLayerDecls() []decl {
	var d []decl
	for _, l := range layers {
		d = append(d, decl{l + ".self_pct", "%"}, decl{l + ".alloc_pct", "%"})
	}
	d = append(d,
		decl{"gc.self_pct", "%"},
		decl{"runtime.self_pct", "%"},
		decl{"tracing.overhead_pct", "%"},

		decl{"sim.ns_per_memcycle.event", "ns"},
		decl{"sim.ns_per_memcycle.cycle", "ns"},
		decl{"sim.mem_cycles", "count"},
		decl{"memctrl.reads", "count"},
		decl{"memctrl.demand_acts", "count"},
		decl{"memctrl.mitigation_acts", "count"},
		decl{"memctrl.row_hit_ratio", "ratio"},
		decl{"cache.miss_ratio", "ratio"},
		decl{"cpu.ipc_sum", "inst/cycle"},

		decl{"mitigation.on_activate_calls", "count"},
		decl{"mitigation.on_activate_ns", "ns"},
		decl{"mitigation.victims_per_kact", "count"},
		decl{"mitigation.throttle_deny_ratio", "ratio"},
		decl{"attack.on_act_calls", "count"},
		decl{"attack.on_act_ns", "ns"},
	)
	d = append(d, replayDecls...)
	d = append(d, simProbeDecls...)
	d = append(d, charProbeDecls...)
	d = append(d,
		decl{"engine.tasks", "count"},
		decl{"engine.idle_pct", "%"},
		decl{"gc.cycles_per_run", "count"},
		decl{"gc.pause_ms_per_run", "ms"},
	)
	d = append(d, serviceProbeDecls...)
	return append(d, serviceDecls...)
}

// metric is one emitted value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured values into the emitted metric set: exactly the
// declared names, each with its unit. A declared metric without a value,
// or a value nobody declared, is a harness bug.
func collect(decls []decl, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(out) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), so compare's spreads match the ones the benchmark is
// accepted on. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// minBeyond is how many samples must lie beyond a reported percentile:
// fewer, and one outlier decides the value.
const minBeyond = 10

// percentile returns the nearest-rank pct-th percentile of xs. It refuses
// a percentile with fewer than minBeyond samples beyond it.
func percentile(xs []float64, pct int) (float64, error) {
	n := len(xs)
	if pct <= 0 || pct > 100 {
		return 0, fmt.Errorf("percentile %d outside (0,100]", pct)
	}
	rank := (pct*n + 99) / 100 // ceil(pct/100 * n) in integer arithmetic
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples leaves %d beyond it, want at least %d", pct, n, n-rank, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}
