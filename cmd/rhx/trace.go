package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

// cmdTrace inspects the synthetic workload traces used by the mitigation
// evaluation: -list shows the workload catalog, -profile generates a
// trace and prints a one-line summary of it.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("rhx trace", flag.ExitOnError)
	var (
		list    = fs.Bool("list", false, "list workload profiles")
		profile = fs.String("profile", "", "generate and summarize a trace for this profile")
		n       = fs.Int("n", 10000, "memory records to generate")
		seed    = fs.Uint64("seed", 1, "generator seed")
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
		if *n < 1 {
			return fmt.Errorf("trace: -n %d: a trace needs at least one record", *n)
		}
		for _, p := range trace.Catalog() {
			if p.Name == *profile {
				fmt.Println(summary(p.Generate(*n, *seed)))
				return nil
			}
		}
		return fmt.Errorf("unknown trace profile %q (try rhx trace -list)", *profile)
	default:
		fs.Usage()
		os.Exit(2)
	}
	return nil
}

// summary describes a non-empty trace in one line: its length, its
// instruction count, its share of writes and the address range it spans.
func summary(t *trace.Trace) string {
	writes := 0
	minAddr, maxAddr := t.Records[0].Addr, t.Records[0].Addr
	for _, r := range t.Records {
		if r.Write {
			writes++
		}
		minAddr, maxAddr = min(minAddr, r.Addr), max(maxAddr, r.Addr)
	}
	return fmt.Sprintf("trace %s: %d records, %d instructions, %.1f%% writes, span %d KiB",
		t.Name, len(t.Records), t.Instructions(),
		100*float64(writes)/float64(len(t.Records)), (maxAddr-minAddr)>>10)
}
