package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// cmdCompare compares two sets of untraced runs (A the parent, B the
// change) metric by metric and workload by workload, against the bounds
// BENCHMARK.json fixes. Each set is a records file or a directory of
// them. It exits 1 when any pairing is worse or
// unresolved.
func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("rhbench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: rhbench compare [-bench BENCHMARK.json] A B  (each a records file or a directory of them)")
		return 2
	}
	bench, err := loadBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhbench: %v\n", err)
		return 1
	}
	var sides [2]map[string][]*record
	for i, path := range fs.Args() {
		recs, err := readSide(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rhbench: %v\n", err)
			return 1
		}
		sides[i] = map[string][]*record{}
		for _, r := range recs {
			if r.Trace == 0 {
				sides[i][r.Workload] = append(sides[i][r.Workload], r)
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (runs)\tB median [q1, q3] (runs)\tchange\tbound\tverdict")
	bad := 0
	for _, w := range workloads {
		a, b := sides[0][w.name], sides[1][w.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range bench.EndToEnd {
			va, vb := sideValues(a, m.Name), sideValues(b, m.Name)
			v := judge(va, vb, m.Better == "higher", m.Bound)
			if v.verdict == "worse" || v.verdict == "unresolved" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", w.name, m.Name, m.Unit,
				fmtQuartiles(va), fmtQuartiles(vb), 100*v.change, 100*m.Bound, v.verdict)
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Printf("%d metric/workload pairings are worse or unresolved\n", bad)
		return 1
	}
	return 0
}

// readSide reads one side's runs: a records file, or every *.json
// records file in a directory.
func readSide(path string) ([]*record, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return readRecords(path)
	}
	files, err := filepath.Glob(filepath.Join(path, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.json records", path)
	}
	var all []*record
	for _, f := range files {
		recs, err := readRecords(f)
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
	}
	return all, nil
}

// sideValues is one side's sample of a metric: its value in each run.
// The spread between runs is what a bound is held against; with one run
// per side it is unknown, and only the change of the medians is judged.
func sideValues(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type verdict struct {
	change  float64 // relative change of the median, positive = worse
	verdict string
}

// judge applies one metric's bound: worse or better when the medians
// differ by more than the bound, unresolved when either side's
// interquartile spread is wider than the bound (unless every B sample
// beats every A sample), within bound otherwise.
func judge(a, b []float64, higherBetter bool, bound float64) verdict {
	if len(a) == 0 || len(b) == 0 {
		return verdict{verdict: "missing"}
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	v := verdict{change: sign * ratio(mb-ma, math.Abs(ma))}
	spread := ratio(math.Max(q3a-q1a, q3b-q1b), math.Abs(ma))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && !allBetter:
		v.verdict = "unresolved"
	case v.change > bound:
		v.verdict = "worse"
	case -v.change > bound || spread > bound:
		v.verdict = "better"
	default:
		v.verdict = "within bound"
	}
	return v
}

func fmtQuartiles(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", m, q1, q3, len(xs))
}
