package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/engine"
)

// workers is the load the benchmark puts on the machine it was sized for
// (2 cores): engine parallelism, service workers and service clients.
const workers = 2

// workload is one set of inputs the benchmark runs. Registry workloads
// run one experiment spec through core.RunContext per rep; the service
// workload (experiment "") drives an in-process serve.Server over HTTP.
type workload struct {
	name       string
	experiment string
	params     any
	// probe builds the workload's probe cell; nil when it simulates
	// nothing.
	probe func(seed uint64) cellMaker
	// probes are the layer probes of its traced run, if any.
	probes *probeGroup
	// pinned, when non-zero, is the spec seed whatever the benchmark
	// seed. It is set where the spec seed decides how much work a rep
	// does, not only which inputs it runs, which would bury a regression
	// in input variance. Across ten benchmark seeds (interquartile range
	// over median): the benign mix composition the seed draws spread the
	// mitigation-sweep grid's allocations 80% and the hammer-attack
	// grid's 20%, and the chip population it draws spread char-hcfirst's
	// peak resident set 25% (50 MB against 76 MB). paced-dodge's
	// allocations and peak resident set repeat across seeds within 4%.
	pinned uint64
}

// seed is the workload's spec seed at a benchmark seed; its probe cell
// and layer probes use it too.
func (w workload) seed(benchSeed int64) uint64 {
	if w.pinned != 0 {
		return w.pinned
	}
	return specSeed(benchSeed, registrySalt)
}

// Why each workload is here is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{
		name:       "mitigation-sweep",
		experiment: "fig10",
		params: core.Fig10Params{
			Mixes: 4, Cores: 8, TraceRecords: 2000, WarmupInsts: 2000, MeasureInsts: 30000,
			HCSweep: []int{100_000, 4_800, 2_000, 512},
		},
		probe:  fig10Cell,
		probes: simProbes,
		pinned: 1,
	},
	{
		name:       "hammer-attack",
		experiment: "attack",
		params:     core.AttackParams{HCSweep: []int{512}, MemCycles: 200_000},
		probe:      hammerCell,
		probes:     replayProbes,
		pinned:     1,
	},
	{
		name:       "paced-dodge",
		experiment: "trr-dodge",
		params: core.TRRDodgeParams{
			Patterns:    []attack.Kind{attack.DoubleSided, attack.ManySided},
			DutyCycles:  []float64{0.125, 0.25, 0.5},
			Phases:      []float64{0, 0.5},
			SampleRates: []float64{0.25, 1},
			TableSizes:  []int{4, 8},
			MemCycles:   6_000_000,
		},
		probe: dodgeCell,
	},
	{
		name:       "char-hcfirst",
		experiment: "table4",
		params:     core.CharParams{Scale: "medium"},
		probes:     charProbes,
		pinned:     1,
	},
	{name: "service-mixed", probes: serviceProbes},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// specSeed derives the seeds a workload uses — a registry workload's
// spec, the service's schedule and cold specs — from the benchmark seed.
func specSeed(benchSeed int64, salt uint64) uint64 {
	return engine.DeriveSeed(uint64(benchSeed), salt)
}

// registrySalt derives a workload's spec seed.
const registrySalt = 0

func newRunner(w workload, seed int64, t *tally, dir string) runner {
	if w.experiment == "" {
		return &serviceRun{seed: seed, t: t, dir: dir}
	}
	return &registryRun{w: w, seed: seed, t: t}
}

// runner runs one workload's set-up, reps and checks.
type runner interface {
	// setup prepares the workload for its reps.
	setup() error
	teardown()
	// minReps is the fewest reps a run makes, so that its percentiles
	// have the samples they need.
	minReps(traced bool) int
	// rep runs one timed rep and returns the engine tasks it executed.
	rep(sp *spans, parent int) (tasks int, err error)
	// verify runs the checks that follow the timed loop.
	verify() error
	// layerValues adds the workload's own per-layer values.
	layerValues(values map[string]float64) error
}

// goldenPath maps each registry workload, at each benchmark seed in
// goldenSeeds, to the SHA-256 of its encoded result; every rep of a run
// at one of those seeds must reproduce it. At any other seed every rep
// must reproduce the run's first.
const goldenPath = "bench/golden.json"

var goldenSeeds = []int64{1, 2}

func loadGolden() (map[string]map[string]string, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var g map[string]map[string]string
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// registrySpec is the workload's experiment spec at the benchmark seed.
func registrySpec(w workload, seed int64) (core.ExperimentSpec, error) {
	return core.NewSpec(w.experiment, w.seed(seed), w.params)
}

// registryRun is the runner of a registry workload.
type registryRun struct {
	w    workload
	seed int64
	t    *tally

	spec core.ExperimentSpec
	want string // the golden digest, or once the first rep ran, its digest
}

func (r *registryRun) setup() error {
	spec, err := registrySpec(r.w, r.seed)
	if err != nil {
		return err
	}
	if _, err := spec.SpecHash(); err != nil {
		return err
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if slices.Contains(goldenSeeds, r.seed) {
		if r.want = g[r.w.name][strconv.FormatInt(r.seed, 10)]; r.want == "" {
			return fmt.Errorf("%s has no digest for %s at seed %d", goldenPath, r.w.name, r.seed)
		}
	}
	r.spec = spec
	return nil
}

func (r *registryRun) teardown() {}

func (r *registryRun) minReps(bool) int { return 1 }

func (r *registryRun) rep(sp *spans, parent int) (int, error) {
	id := sp.begin("run "+r.spec.Name, parent)
	defer sp.end(id)
	res, err := core.RunContext(context.Background(), r.spec, core.Exec{Parallelism: workers})
	if err != nil {
		r.t.check(false, "%s: %v", r.w.name, err)
		return 0, err
	}
	raw, err := res.Encode()
	if err != nil {
		return 0, err
	}
	d := digest(raw)
	if r.want == "" {
		r.want = d
	}
	r.t.check(d == r.want, "%s: result digest %s, want %s", r.w.name, d, r.want)
	return res.Tasks, nil
}

func (r *registryRun) verify() error { return nil }

// layerValues: a registry workload exercises no service or store.
func (r *registryRun) layerValues(values map[string]float64) error {
	for _, d := range serviceDecls {
		values[d.name] = 0
	}
	return nil
}

// workDir is where runs keep result stores and span traces, under the
// build directory the benchmark wrapper uses.
var workDir = filepath.Join("bench", ".bench_build", "rhbench")

// cmdGolden recomputes golden.json from one run of each registry
// workload at each golden seed. Run it only with a change that is meant
// to alter results.
func cmdGolden(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "usage: rhbench golden")
		return 2
	}
	g := map[string]map[string]string{}
	for _, w := range workloads {
		if w.experiment == "" {
			continue
		}
		g[w.name] = map[string]string{}
		for _, seed := range goldenSeeds {
			d, err := runDigest(w, seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rhbench: %s: %v\n", w.name, err)
				return 1
			}
			g[w.name][strconv.FormatInt(seed, 10)] = d
			fmt.Printf("%s %d %s\n", w.name, seed, d)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err == nil {
		err = os.WriteFile(goldenPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhbench: %v\n", err)
		return 1
	}
	return 0
}

// runDigest runs a registry workload once at the benchmark seed and
// returns its result's digest.
func runDigest(w workload, seed int64) (string, error) {
	spec, err := registrySpec(w, seed)
	if err != nil {
		return "", err
	}
	res, err := core.RunContext(context.Background(), spec, core.Exec{Parallelism: workers})
	if err != nil {
		return "", err
	}
	raw, err := res.Encode()
	if err != nil {
		return "", err
	}
	return digest(raw), nil
}
