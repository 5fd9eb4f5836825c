// Command rhbench is the repository's benchmark: five workloads that
// drive the reproduction's public layers (core.RunContext, serve.New over
// HTTP, sim.Run and each layer's constructors and methods) from one
// process, check every output, and print every metric as
// `name value unit`, followed by one JSON summary line.
//
// Run it from the repository root, through the wrapper that builds it:
//
//	bash bench/rhbench.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out runs.json]
//	bash bench/rhbench.sh compare A.json B.json
//	bash bench/rhbench.sh golden
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// makes the traced run and reports the per-layer metrics. --workload all
// runs each workload in a child process (and with --trace 1, both
// modes), collecting every run record into --out. The exit status is
// non-zero when any output was wrong. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			os.Exit(cmdCompare(args[1:]))
		case "golden":
			os.Exit(cmdGolden(args[1:]))
		case "setup":
			os.Exit(cmdSetup(args[1:]))
		}
	}
	os.Exit(cmdRun(args))
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("rhbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "benchmark seed; every input a run makes derives from it")
	seconds := fs.Float64("seconds", 25, "how long a run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "write the run records to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "rhbench: want --trace 0|1, --seconds > 0 and no positional arguments")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *out)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "rhbench: unknown workload %q (want one of %s, or all)\n", *name, workloadNames())
		return 2
	}
	rec, err := runWorkload(w, *seed, budget, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhbench: %s: %v\n", w.name, err)
		return 1
	}
	if *out != "" {
		if err := writeRecords(*out, []*record{rec}); err != nil {
			fmt.Fprintf(os.Stderr, "rhbench: %v\n", err)
			return 1
		}
	}
	decls := endToEnd
	if rec.Trace == 1 {
		decls = perLayer
	}
	for _, d := range decls {
		m := rec.Metrics[d.name]
		fmt.Printf("%s %v %s\n", d.name, m.Value, m.Unit)
	}
	if err := printSummary(rec.Correct, rec.Attempted, rec.Failed, rec.Metrics); err != nil {
		fmt.Fprintf(os.Stderr, "rhbench: %v\n", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// printSummary prints the JSON line that ends every run's output.
func printSummary(correct bool, attempted, failed int64, metrics map[string]metric) error {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runAll runs every workload in its own child process, so peak RSS and
// heap state stay per workload, and collects their records.
func runAll(seed int64, seconds float64, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "rhbench: %v\n", err)
		return 1
	}
	modes := []int{0}
	if trace == 1 {
		modes = append(modes, 1)
	}
	var all []*record
	ok := true
	for _, w := range workloads {
		for _, mode := range modes {
			part := filepath.Join(workDir, fmt.Sprintf("%s-%d.json", w.name, mode))
			cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(mode), "--out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "rhbench: %s (trace %d): %v\n", w.name, mode, err)
				ok = false
			}
			recs, err := readRecords(part)
			os.Remove(part)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rhbench: %s (trace %d): %v\n", w.name, mode, err)
				ok = false
				continue
			}
			all = append(all, recs...)
		}
	}
	if out != "" {
		if err := writeRecords(out, all); err != nil {
			fmt.Fprintf(os.Stderr, "rhbench: %v\n", err)
			return 1
		}
	}
	var attempted, failed int64
	metrics := map[string]metric{}
	for _, r := range all {
		attempted += r.Attempted
		failed += r.Failed
		ok = ok && r.Correct
		for name, m := range r.Metrics {
			metrics[r.Workload+"/"+name] = m
		}
	}
	if err := printSummary(ok, attempted, failed, metrics); err != nil || !ok {
		return 1
	}
	return 0
}

// runsFile is the JSON document -out writes and compare reads.
type runsFile struct {
	Runs []*record `json:"runs"`
}

func writeRecords(path string, recs []*record) error {
	data, err := json.MarshalIndent(runsFile{Runs: recs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, errors.New(path + ": no runs")
	}
	return f.Runs, nil
}
