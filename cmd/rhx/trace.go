package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

// cmdTrace generates and inspects the synthetic workload traces used by
// the mitigation evaluation: -list shows the workload catalog, -profile
// emits a trace to stdout, -stat summarizes a trace read from stdin.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("rhx trace", flag.ExitOnError)
	var (
		list    = fs.Bool("list", false, "list workload profiles")
		profile = fs.String("profile", "", "generate a trace for this profile")
		n       = fs.Int("n", 10000, "memory records to generate")
		seed    = fs.Uint64("seed", 1, "generator seed")
		stat    = fs.Bool("stat", false, "summarize a trace read from stdin")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *list:
		fmt.Printf("%-16s %8s %12s %6s %6s\n", "profile", "mem%", "working-set", "seq%", "wr%")
		for _, p := range trace.Catalog() {
			fmt.Printf("%-16s %7.0f%% %10dMiB %5.0f%% %5.0f%%\n",
				p.Name, 100*p.MemFraction, p.WorkingSetBytes>>20, 100*p.Sequential, 100*p.WriteRatio)
		}
	case *profile != "":
		for _, p := range trace.Catalog() {
			if p.Name == *profile {
				return p.Generate(*n, *seed).Encode(os.Stdout)
			}
		}
		return fmt.Errorf("unknown trace profile %q (try rhx trace -list)", *profile)
	case *stat:
		t, err := trace.Decode(os.Stdin)
		if err != nil {
			return err
		}
		writes := 0
		var minAddr, maxAddr int64
		for i, r := range t.Records {
			if r.Write {
				writes++
			}
			if i == 0 || r.Addr < minAddr {
				minAddr = r.Addr
			}
			if r.Addr > maxAddr {
				maxAddr = r.Addr
			}
		}
		fmt.Printf("trace %s: %d records, %d instructions, %.1f%% writes, span %d KiB\n",
			t.Name, len(t.Records), t.Instructions(),
			100*float64(writes)/float64(len(t.Records)), (maxAddr-minAddr)>>10)
	default:
		fs.Usage()
		os.Exit(2)
	}
	return nil
}
