package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"testing"

	"repro/internal/attack"
	"repro/internal/mitigation"
	"repro/internal/sim"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"own frame", []string{"repro/internal/memctrl.(*Controller).Tick", "repro/internal/sim.(*system).runEvent", "repro/internal/sim.Run"}, "memctrl"},
		{"innermost layer wins", []string{"repro/internal/cache.(*Cache).lookup", "repro/internal/cpu.(*Core).Tick", "repro/internal/sim.Run"}, "cache"},
		{"mallocgc charged to its caller", []string{"runtime.mallocgc", "runtime.makeslice", "repro/internal/mitigation.clampNeighbors", "repro/internal/mitigation.(*PARA).OnActivate"}, "mitigation"},
		{"map helper charged to its caller", []string{"runtime.mapaccess2_fast64", "repro/internal/faultmodel.(*Chip).ObservedFlips", "repro/internal/charact.(*Tester).HammerDoubleSided"}, "faultmodel"},
		{"generic and closure names", []string{"repro/internal/core.gridResult[...].func1", "repro/internal/engine.Map[...].func1"}, "core"},
		{"assist inside a layer is gc", []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/cache.New"}, "gc"},
		{"background mark worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "gc"},
		{"background sweeper", []string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{"write barrier stays with the mutator", []string{"runtime.wbBufFlush", "runtime.gcWriteBarrier2", "repro/internal/store.(*Store).Get"}, "store"},
		{"harness and stdlib only", []string{"crypto/sha256.block", "main.digest", "main.(*registryRun).rep"}, "runtime"},
		{"unknown internal package is skipped", []string{"repro/internal/analysis.Run", "repro/internal/serve.(*Server).handleSubmit"}, "serve"},
		{"scheduler", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
	}
}

// sink keeps allocHeavy's allocations reachable from a package variable,
// so the compiler cannot drop them.
var sink [][]byte

func allocHeavy() {
	for i := 0; i < 2000; i++ {
		sink = append(sink, make([]byte, 1024))
	}
}

func TestParseHeapProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	allocHeavy()
	sink = nil
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attribute(p, "alloc_objects/count"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, f := range p.stack(s) {
			if f == "repro/bench/rhbench.allocHeavy" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample's stack names allocHeavy (sample types %v, %d samples)", p.sampleTypes, len(p.samples))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	for _, c := range []struct {
		pct  int
		want float64
	}{{50, 500}, {95, 950}, {99, 990}} {
		got, err := percentile(xs, c.pct)
		if err != nil || got != c.want {
			t.Errorf("p%d = %v, %v; want %v", c.pct, got, err, c.want)
		}
	}
	// p99 of 999 samples has 9 beyond it: refused. p95 of 199 likewise.
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples: want a refusal")
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples: want a refusal")
	}
	if _, err := percentile(xs[:200], 95); err != nil {
		t.Errorf("p95 of 200 samples: %v", err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples: want a refusal")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{32, 16, 8, 4, 2, 1}, [3]float64{1.75, 6, 20}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}}, // Python extrapolates past two points
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestShimTransparency: a shimmed mechanism (and observer) must leave
// the simulation byte-for-byte unchanged, and the shim must expose
// mitigation.Throttler exactly when the wrapped mechanism does.
func TestShimTransparency(t *testing.T) {
	mechs := map[string]func(mitigation.Params, int64) (mitigation.Mechanism, error){
		"PARA": func(p mitigation.Params, tck int64) (mitigation.Mechanism, error) { return mitigation.NewPARA(p, tck) },
		"BlockHammer": func(p mitigation.Params, _ int64) (mitigation.Mechanism, error) {
			return mitigation.NewBlockHammer(p)
		},
	}
	for name, mech := range mechs {
		build := attackCell(3, attackCellSpec{kind: attack.DoubleSided, hc: 512, memCycles: 20_000, benign: 1, mech: mech})
		plain, _, err := runCell(build, sim.EngineEvent, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := &shimStats{record: true}
		shimmed, _, err := runCell(build, sim.EngineEvent, st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, shimmed) {
			t.Errorf("%s: shimmed result differs from the unwrapped run", name)
		}
		if st.activateCalls == 0 || st.obsCalls == 0 || len(st.stream) == 0 {
			t.Errorf("%s: shims saw %d activations, %d observer ACTs, %d recorded events", name, st.activateCalls, st.obsCalls, len(st.stream))
		}
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		_, innerThrottles := c.cfg.Mechanism.(mitigation.Throttler)
		_, shimThrottles := wrapMechanism(c.cfg.Mechanism, &shimStats{}).(mitigation.Throttler)
		if innerThrottles != shimThrottles {
			t.Errorf("%s: mechanism throttles %v, its shim %v", name, innerThrottles, shimThrottles)
		}
		if name == "BlockHammer" && st.allowCalls == 0 {
			t.Errorf("BlockHammer: the throttle shim saw no ActAllowed calls")
		}
	}
}

// TestSchema pins the harness's metric declarations to BENCHMARK.json:
// every emitted metric is declared there with the same unit, every
// declared metric is emitted, and every name is well formed. Every
// workload emits the whole list, because collect refuses a missing or
// undeclared value.
func TestSchema(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, decls []decl, names, units, betters []string) {
		if len(decls) != len(names) {
			t.Errorf("%s: harness declares %d metrics, BENCHMARK.json %d", kind, len(decls), len(names))
		}
		for i := 0; i < len(decls) && i < len(names); i++ {
			if decls[i].name != names[i] || decls[i].unit != units[i] {
				t.Errorf("%s %d: harness %s [%s], BENCHMARK.json %s [%s]", kind, i, decls[i].name, decls[i].unit, names[i], units[i])
			}
		}
		for i, n := range names {
			if !name.MatchString(n) || !unit.MatchString(units[i]) || (betters[i] != "lower" && betters[i] != "higher") {
				t.Errorf("%s: malformed metric %q [%s] better=%q", kind, n, units[i], betters[i])
			}
		}
	}
	// No bound is wider than the 20% the measured run-to-run spreads
	// need (README.md), and set-up time's is the widest.
	var names, units, betters []string
	var setupBound, widest float64
	for _, m := range b.EndToEnd {
		names, units, betters = append(names, m.Name), append(units, m.Unit), append(betters, m.Better)
		if m.Bound <= 0 || m.Bound > 0.20 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.20]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		widest = max(widest, m.Bound)
	}
	if setupBound != widest {
		t.Errorf("setup_s bound %v, want the widest bound, %v", setupBound, widest)
	}
	check("end_to_end", endToEnd, names, units, betters)
	names, units, betters = nil, nil, nil
	for _, m := range b.PerLayer {
		names, units, betters = append(names, m.Name), append(units, m.Unit), append(betters, m.Better)
	}
	check("per_layer", perLayer, names, units, betters)

	seen := map[string]bool{}
	for _, list := range [][]decl{endToEnd, perLayer} {
		for _, d := range list {
			if seen[d.name] {
				t.Errorf("metric %s declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, harness %s", i, w.Name, workloads[i].name)
		}
	}

	values := map[string]float64{}
	for _, d := range perLayer {
		values[d.name] = 1
	}
	if _, err := collect(perLayer, values); err != nil {
		t.Errorf("collect of a complete set: %v", err)
	}
	values["undeclared"] = 1
	if _, err := collect(perLayer, values); err == nil {
		t.Error("collect accepted an undeclared metric")
	}
	delete(values, "undeclared")
	delete(values, perLayer[0].name)
	if _, err := collect(perLayer, values); err == nil {
		t.Error("collect accepted a missing metric")
	}
}

func TestCompareSides(t *testing.T) {
	dir := t.TempDir()
	for i, v := range []float64{2, 3} {
		rec := &record{Workload: "char-hcfirst", Metrics: map[string]metric{"run_s": {Value: v, Unit: "s"}}}
		if err := writeRecords(filepath.Join(dir, fmt.Sprintf("run%d.json", i)), []*record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := readSide(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := sideValues(recs, "run_s"); !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Errorf("a directory side gave run_s values %v, want [2 3]", got)
	}
	one, err := readSide(filepath.Join(dir, "run0.json"))
	if err != nil || len(one) != 1 {
		t.Errorf("a file side gave %d runs, %v", len(one), err)
	}
}

func TestJudge(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"same", tight, tight, false, "within bound"},
		{"slower", tight, []float64{120, 121, 119, 120, 120}, false, "worse"},
		{"faster", tight, []float64{80, 81, 79, 80, 80}, false, "better"},
		{"faster but higher is better", tight, []float64{80, 81, 79, 80, 80}, true, "worse"},
		{"noisy", []float64{70, 100, 130, 90, 110}, tight, false, "unresolved"},
		{"spread just past the bound", []float64{90, 95, 100, 105, 110}, tight, false, "unresolved"},
		{"noisy but every run better", []float64{150, 200, 260, 180, 220}, tight, false, "better"},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.higherBetter, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
