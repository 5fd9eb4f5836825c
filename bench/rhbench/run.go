package main

import (
	"bufio"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/sim"
)

// setupsPerRep is how many fresh processes set the workload up for
// setup_s before the first rep and after each.
const setupsPerRep = 3

// record is one run's outcome: what the run prints, and what -out
// stores for compare. Samples holds the per-rep (per-process, for
// setup_s) values behind the median metrics, and the reference kernel's
// times that scaled them, for reading a run in detail.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     int                  `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metric    `json:"metrics"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
}

// runWorkload sets the workload up, then either measures untraced reps
// for about budget (end-to-end metrics) or makes the traced run
// (per-layer metrics).
func runWorkload(w workload, seed int64, budget time.Duration, traced bool) (*record, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t := &tally{}
	d := newRunner(w, seed, t, dir)
	if err := d.setup(); err != nil {
		d.teardown()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.teardown()

	rec := &record{Workload: w.name, Seed: seed}
	values := map[string]float64{}
	decls := endToEnd
	if traced {
		rec.Trace = 1
		decls = perLayer
		err = tracedRun(w, seed, d, t, budget/2, dir, values)
	} else {
		rec.Samples, err = untracedRun(w, seed, d, budget, values)
	}
	if err != nil {
		return nil, err
	}
	if err := d.verify(); err != nil {
		return nil, err
	}
	if rec.Metrics, err = collect(decls, values); err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed = t.attempted.Load(), t.failed.Load()
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}

func wallOf(s repSample) float64 { return s.wall }

// untracedRun measures the end-to-end metrics with tracing off. Before
// the first rep and after each, the reference kernel runs and then
// setupsPerRep fresh processes set the workload up. Every rep's times are
// scaled by the kernel's time around it, and every set-up's by the
// kernel's time just before it.
func untracedRun(w workload, seed int64, d runner, budget time.Duration, values map[string]float64) (map[string][]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var refs, setups []float64
	boundary := func() error {
		ref := refSeconds()
		refs = append(refs, ref)
		for i := 0; i < setupsPerRep; i++ {
			s, err := setupSeconds(exe, w, seed)
			if err != nil {
				return err
			}
			setups = append(setups, s*refNominal/ref)
		}
		return nil
	}
	if err := boundary(); err != nil {
		return nil, err
	}
	reps, err := repeatFor(budget, d.minReps(false), func(int) (repSample, error) {
		s, err := measureRep(func() (int, error) { return d.rep(nil, 0) })
		if err != nil {
			return s, err
		}
		return s, boundary()
	})
	if err != nil {
		return nil, err
	}
	scale := func(i int) float64 { return 2 * refNominal / (refs[i] + refs[i+1]) }
	samples := map[string][]float64{
		"run_s":            make([]float64, len(reps)),
		"run_cpu_s":        make([]float64, len(reps)),
		"allocs_per_run":   column(reps, func(s repSample) float64 { return s.mallocs }),
		"alloc_mb_per_run": column(reps, func(s repSample) float64 { return s.allocMB }),
		"peak_rss_mb":      column(reps, func(s repSample) float64 { return s.rssMB }),
	}
	for i, r := range reps {
		samples["run_s"][i] = r.wall * scale(i)
		samples["run_cpu_s"][i] = r.cpu * scale(i)
	}
	for name, xs := range samples {
		values[name] = median(xs)
	}
	values["setup_s"] = median(setups)
	samples["setup_s"] = setups
	samples["reference_s"] = refs
	return samples, nil
}

// setupSeconds starts a fresh harness process (exe) that sets the
// workload up and reports ready, and returns its seconds from start to
// ready. Timing whole processes counts the start-up a user pays on every
// run, package initialization included, and spreads the samples over
// processes, whose scheduling differs.
func setupSeconds(exe string, w workload, seed int64) (float64, error) {
	cmd := exec.Command(exe, "setup", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	ready := time.Since(t0).Seconds()
	if err := cmd.Wait(); err != nil || readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up process: read %q (%v), exit %v", line, readErr, err)
	}
	return ready, nil
}

// cmdSetup is the set-up process setupSeconds starts: it sets the workload
// up, prints "ready", and tears it down.
func cmdSetup(args []string) int {
	fs := flag.NewFlagSet("rhbench setup", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to set up")
	seed := fs.Int64("seed", 1, "benchmark seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "rhbench setup: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "rhbench setup: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, w.name+"-setup-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhbench setup: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	d := newRunner(w, *seed, &tally{}, dir)
	defer d.teardown()
	if err := d.setup(); err != nil {
		fmt.Fprintf(os.Stderr, "rhbench setup: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println("ready")
	return 0
}

// tracedRun is one rep under the CPU and allocation profilers, with
// untraced reps for about budget before it as the overhead baseline,
// then the workload's probe cell and layer probes. Its spans go to
// <workDir>/<workload>.trace.json.
func tracedRun(w workload, seed int64, d runner, t *tally, budget time.Duration, dir string, values map[string]float64) error {
	reps, err := repeatFor(budget, d.minReps(true), func(int) (repSample, error) {
		return measureRep(func() (int, error) { return d.rep(nil, 0) })
	})
	if err != nil {
		return err
	}
	sp := newSpans()
	root := sp.begin("workload "+w.name, 0)
	var tr repSample
	cpu, allocs, err := profileRep(func() error {
		id := sp.begin("rep (traced)", root)
		defer sp.end(id)
		var err error
		tr, err = measureRep(func() (int, error) { return d.rep(sp, id) })
		return err
	})
	if err != nil {
		return err
	}
	values["tracing.overhead_pct"] = 100 * (tr.wall/median(column(reps, wallOf)) - 1)
	for _, l := range layers {
		values[l+".self_pct"] = cpu[l]
		values[l+".alloc_pct"] = allocs[l]
	}
	values["gc.self_pct"], values["runtime.self_pct"] = cpu["gc"], cpu["runtime"]
	values["engine.tasks"] = median(column(reps, func(s repSample) float64 { return s.tasks }))
	values["engine.idle_pct"] = median(column(reps, func(s repSample) float64 { return 100 * (1 - s.cpu/(s.wall*workers)) }))
	values["gc.cycles_per_run"] = median(column(reps, func(s repSample) float64 { return s.gcCycles }))
	values["gc.pause_ms_per_run"] = median(column(reps, func(s repSample) float64 { return s.gcPauseMS }))

	probeSeed := w.seed(seed)
	id := sp.begin("probe cell", root)
	cell := cellValues(&sim.Result{}, 0, 0, &shimStats{})
	if w.probe != nil {
		cell, err = probeCellMetrics(w.probe(probeSeed), t)
	}
	sp.end(id)
	if err != nil {
		return fmt.Errorf("probe cell: %w", err)
	}
	maps.Copy(values, cell)
	for _, o := range workloads {
		if o.probes == nil {
			continue
		}
		if o.name != w.name {
			for _, m := range o.probes.decls {
				values[m.name] = 0
			}
			continue
		}
		id := sp.begin("probe "+o.probes.name, root)
		v, err := o.probes.run(probeSeed, dir, t)
		sp.end(id)
		if err != nil {
			return fmt.Errorf("%s probe: %w", o.probes.name, err)
		}
		for _, m := range o.probes.decls {
			if _, ok := v[m.name]; !ok {
				return fmt.Errorf("%s probe measured no %s", o.probes.name, m.name)
			}
		}
		maps.Copy(values, v)
	}
	if err := d.layerValues(values); err != nil {
		return err
	}
	sp.end(root)
	return sp.write(filepath.Join(workDir, w.name+".trace.json"))
}
