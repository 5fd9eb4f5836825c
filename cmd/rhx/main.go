// Command rhx is the unified experiment runner over the declarative
// experiment API: every paper artifact and post-paper evaluation is a
// named experiment resolved through a registry, described by one
// JSON-serializable spec (name + params + seed + shard), and produces a
// mergeable result. Shards of one spec can run on different machines;
// merging their outputs reproduces the single-process result byte for
// byte.
//
// Usage:
//
//	rhx list                                  # registry + default params
//	rhx run -name attack                      # defaults, print report
//	rhx run -spec spec.json -out full.json    # spec file → result JSON
//	rhx run -spec spec.json -store cache/     # cached: instant on re-run
//	rhx run -spec spec.json -shard 0/2 -out part0.json
//	rhx run -spec spec.json -shard 1/2 -out part1.json
//	rhx merge -out merged.json part0.json part1.json
//	rhx merge -format part*.json              # merge and print the report
//	rhx fmt merged.json                       # render a stored result
//	rhx spec -name pareto                     # emit a template spec
//	rhx spec -name pareto -hash               # print its content address
//	rhx serve -addr :8080 -store cache/       # HTTP experiment service
//	rhx report -quick                         # every paper artifact in one report
//	rhx trace -profile stream-copy -n 1000    # emit a workload trace
//	rhx trace -stat < trace.txt               # summarize a trace file
//	rhx lint                                  # run the rhlint analyzers
//
// The -store flag (shared by run and serve) points at a content-
// addressed result store: results are keyed by the SHA-256 of their
// canonical spec, so the CLI and the service share one cache — a grid
// sharded by CLI runs resumes inside the service and vice versa.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "fmt":
		err = cmdFmt(os.Args[2:])
	case "spec":
		err = cmdSpec(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "lint":
		// The suite prints its own findings and errors; its exit code is
		// 0 clean, 1 findings, 2 an error.
		os.Exit(analysis.Standalone(".", os.Args[2:], os.Stdout, os.Stderr))
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "rhx: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhx: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rhx list                               list registered experiments
  rhx run   [-spec f|-name n] [flags]    run (a shard of) an experiment
  rhx merge [-out f] [-format] part...   merge shard results
  rhx fmt   result.json                  render a stored result
  rhx spec  -name n [-seed s] [-hash]    emit a template spec (or its hash)
  rhx serve -addr a -store d [flags]     run the HTTP experiment service
  rhx report [-quick|-full] [flags]      run every paper artifact into one report
  rhx trace  -list|-profile p|-stat      generate or summarize workload traces
  rhx lint  [-json] [packages]           run the rhlint static analyzers (default ./...)`)
}

// loadSpec resolves -spec/-name/-seed/-shard into a validated spec.
func loadSpec(specPath, name string, seed uint64, shardStr string) (core.ExperimentSpec, error) {
	var spec core.ExperimentSpec
	switch {
	case specPath != "" && name != "":
		return spec, fmt.Errorf("give either -spec or -name, not both")
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return spec, err
		}
		spec, err = core.DecodeSpec(data)
		if err != nil {
			return spec, err
		}
	case name != "":
		s, err := core.NewSpec(name, seed, nil)
		if err != nil {
			return spec, err
		}
		spec = s
	default:
		return spec, fmt.Errorf("need -spec file or -name experiment (try `rhx list`)")
	}
	if seed != 0 {
		spec.Seed = seed
	}
	if shardStr != "" {
		shard, err := core.ParseShard(shardStr)
		if err != nil {
			return spec, err
		}
		spec.Shard = shard
	}
	return spec, spec.Validate()
}

// writeOut writes data to path, or stdout for "".
func writeOut(path string, data []byte) error {
	if path == "" || path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("rhx list", flag.ExitOnError)
	verbose := fs.Bool("v", false, "include each experiment's default params JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, e := range core.Experiments() {
		fmt.Printf("%-8s %s\n", e.Name, e.Description)
		if *verbose {
			fmt.Printf("         params: %s\n", e.DefaultParams)
		}
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("rhx run", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "spec JSON file (\"-\" reads stdin is not supported; use a file)")
		name     = fs.String("name", "", "run a registered experiment with default params")
		seed     = fs.Uint64("seed", 0, "override the spec's seed (0 keeps it)")
		shardStr = fs.String("shard", "", "run one shard, as index/count (e.g. 2/8)")
		out      = fs.String("out", "", "write the result JSON here (default: only the report is printed)")
		format   = fs.Bool("format", false, "also print the formatted report (complete results only)")
		parallel = fs.Int("parallel", 0, "concurrent tasks (0 = all cores; never affects results)")
		storeDir = fs.String("store", "", "content-addressed result store directory (enables caching + resume)")
		shards   = fs.Int("shards", 0, "with -store: split a whole-grid run into N cacheable shard units (resume reuses finished ones)")
		noCache  = fs.Bool("no-cache", false, "with -store: skip cache reads, recompute, and refresh the stored entry")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run here (pprof format)")
		memProf  = fs.String("memprofile", "", "write a heap profile at end of run here (pprof format)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(*specPath, *name, *seed, *shardStr)
	if err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var res *core.Result
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		runner := &store.Runner{
			Store:   st,
			Exec:    core.Exec{Parallelism: *parallel},
			Shards:  *shards,
			NoCache: *noCache,
			OnEvent: func(ev store.Event) {
				switch ev.Status {
				case store.StatusRunning:
					fmt.Fprintf(os.Stderr, "rhx: %s shard %s: running\n", spec.Name, ev.Shard)
				default:
					fmt.Fprintf(os.Stderr, "rhx: %s shard %s: %s (%d/%d cells)\n",
						spec.Name, ev.Shard, ev.Status, ev.Cells, ev.Tasks)
				}
			},
		}
		var hit bool
		res, _, hit, err = runner.Run(signalContext(), spec)
		if err != nil {
			return err
		}
		hash, _ := spec.SpecHash()
		if hit {
			fmt.Fprintf(os.Stderr, "rhx: %s: served from store (%s)\n", spec.Name, hash)
		} else {
			fmt.Fprintf(os.Stderr, "rhx: %s: computed and stored (%s)\n", spec.Name, hash)
		}
	} else {
		if *noCache {
			return fmt.Errorf("-no-cache needs -store")
		}
		res, err = core.RunContext(signalContext(), spec, core.Exec{Parallelism: *parallel})
		if err != nil {
			return err
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	wantFormat := *format || *out == ""
	if *out != "" {
		data, err := res.Encode()
		if err != nil {
			return err
		}
		if err := writeOut(*out, data); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rhx: %s shard %s: %d/%d tasks → %s\n",
			spec.Name, spec.Shard, len(res.Cells), res.Tasks, *out)
	}
	if wantFormat {
		if !res.Complete() {
			if *out == "" {
				return fmt.Errorf("shard %s covers %d/%d tasks; pass -out to save it for merging",
					spec.Shard, len(res.Cells), res.Tasks)
			}
			return nil
		}
		text, err := res.Format()
		if err != nil {
			return err
		}
		fmt.Println(text)
	}
	return nil
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("rhx merge", flag.ExitOnError)
	var (
		out    = fs.String("out", "", "write the merged result JSON here")
		format = fs.Bool("format", false, "print the formatted report after merging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("merge needs at least one result file")
	}
	var parts []*core.Result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		r, err := core.DecodeResult(data)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		parts = append(parts, r)
	}
	merged, err := core.MergeResults(parts...)
	if err != nil {
		return err
	}
	if !merged.Complete() {
		fmt.Fprintf(os.Stderr, "rhx: warning: merged result covers %d/%d tasks (missing shards?)\n",
			len(merged.Cells), merged.Tasks)
	}
	if *out != "" {
		data, err := merged.Encode()
		if err != nil {
			return err
		}
		if err := writeOut(*out, data); err != nil {
			return err
		}
	}
	if *format || *out == "" {
		text, err := merged.Format()
		if err != nil {
			return err
		}
		fmt.Println(text)
	}
	return nil
}

func cmdFmt(args []string) error {
	fs := flag.NewFlagSet("rhx fmt", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("fmt needs exactly one result file")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := core.DecodeResult(data)
	if err != nil {
		return err
	}
	text, err := res.Format()
	if err != nil {
		return err
	}
	fmt.Println(text)
	return nil
}

func cmdSpec(args []string) error {
	fs := flag.NewFlagSet("rhx spec", flag.ExitOnError)
	var (
		name     = fs.String("name", "", "experiment name")
		seed     = fs.Uint64("seed", 1, "seed")
		specPath = fs.String("spec", "", "hash an existing spec file instead of a template")
		hash     = fs.Bool("hash", false, "print the spec's content address (store key) instead of the spec")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(*specPath, *name, func() uint64 {
		if *specPath != "" {
			return 0 // keep the file's seed
		}
		return *seed
	}(), "")
	if err != nil {
		return err
	}
	if *hash {
		h, err := spec.SpecHash()
		if err != nil {
			return err
		}
		fmt.Println(h)
		return nil
	}
	data, err := spec.Encode()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

// signalContext returns a context canceled by SIGINT/SIGTERM, so ^C
// stops in-flight grid tasks promptly instead of running to completion.
func signalContext() context.Context {
	ctx, _ := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	return ctx
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("rhx serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		storeDir = fs.String("store", "rhx-store", "content-addressed result store directory")
		workers  = fs.Int("workers", 2, "concurrent shard executions across all requests")
		shards   = fs.Int("shards", 0, "cacheable shard units per submitted grid (0 = workers)")
		parallel = fs.Int("parallel", 0, "concurrent tasks within one shard run (0 = all cores)")
		logJSON  = fs.Bool("log-json", false, "emit structured logs as JSON (default: text)")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ for live profiling")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Store:       st,
		Workers:     *workers,
		Shards:      *shards,
		Exec:        core.Exec{Parallelism: *parallel},
		Logger:      logger,
		EnablePprof: *pprofOn,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address goes to stdout so scripts starting the service
	// on port 0 can discover the port.
	fmt.Printf("rhx serve: listening on %s (store %s, %d workers)\n", ln.Addr(), *storeDir, *workers)

	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx := signalContext()
	select {
	case <-ctx.Done():
		logger.Info("shutdown", "reason", "signal")
	case err := <-errCh:
		return err
	}
	// Graceful stop: cancel and drain the jobs first (this unblocks any
	// handler waiting on one), then close the listener and let in-flight
	// handlers finish.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("job shutdown", "error", err)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "error", err)
	}
	return nil
}
