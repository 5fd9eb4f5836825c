// Package trace generates the synthetic workload traces that substitute
// for the paper's SPEC CPU2006 mixes (Section 6.2.1): per-core streams of
// instruction records replayed by the simple core model. A record says
// "execute N non-memory instructions, then one memory instruction at
// address A". Profiles span the paper's memory-intensity range (mix MPKIs
// from 10 to 740).
package trace

import (
	"fmt"
	"math/bits"

	"repro/internal/stats"
)

// Record is one trace entry: Gap non-memory instructions followed by one
// memory access. NoCache marks a flush+load (the clflush-based access
// RowHammer attack code uses): the LLC invalidates any cached copy and
// forwards the read straight to the memory controller without allocating.
type Record struct {
	Gap     int
	Addr    int64
	Write   bool
	NoCache bool
}

// Trace is a finite instruction trace replayed cyclically by the core.
// Each replay pass shifts all addresses by PassStride (wrapping within
// Span bytes), so a short trace models a full-length one: streaming
// workloads keep streaming into fresh memory while cache-resident
// workloads stay inside their small working set.
type Trace struct {
	Name    string
	Records []Record

	// PassStride is added to every address per completed replay pass.
	PassStride int64
	// Span bounds the accumulated pass offset (the working set size).
	Span int64
}

// PassOffset returns the address offset applied on the given pass:
// pass·PassStride reduced into [0, Span), computed without overflow.
func (t *Trace) PassOffset(pass int64) int64 {
	if t.PassStride == 0 || t.Span <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(floorMod(pass, t.Span), floorMod(t.PassStride, t.Span))
	return int64(bits.Rem64(hi, lo, uint64(t.Span)))
}

// floorMod returns x modulo m (m > 0) in [0, m).
func floorMod(x, m int64) uint64 {
	if x %= m; x < 0 {
		x += m
	}
	return uint64(x)
}

// Instructions returns the total instruction count of one pass
// (memory instructions count as one each).
func (t *Trace) Instructions() int64 {
	var n int64
	for _, r := range t.Records {
		n += int64(r.Gap) + 1
	}
	return n
}

// Profile parameterizes a synthetic workload archetype.
type Profile struct {
	Name string
	// MemFraction is the fraction of instructions that access memory.
	MemFraction float64
	// WorkingSetBytes bounds the touched address range. Working sets
	// larger than the LLC produce misses; smaller ones are cache-resident
	// (low-MPKI workloads).
	WorkingSetBytes int64
	// Sequential is the probability that the next access continues the
	// current stream (next cache line) rather than jumping randomly —
	// streams are row-buffer friendly, jumps are not.
	Sequential float64
	// WriteRatio is the fraction of memory accesses that are stores.
	WriteRatio float64
}

// Generate produces a trace with the given number of memory records.
func (p Profile) Generate(records int, seed uint64) *Trace {
	rng := stats.NewRNG(seed)
	t := &Trace{Name: p.Name, Records: make([]Record, 0, records)}
	const line = 64
	lines := p.WorkingSetBytes / line
	if lines < 16 {
		lines = 16
	}
	// One pass touches at most records distinct lines; shifting by that
	// footprint each pass walks the whole working set over time.
	t.PassStride = int64(records) * line
	t.Span = lines * line
	// Mean gap between memory instructions.
	meanGap := 0.0
	if p.MemFraction > 0 {
		meanGap = 1/p.MemFraction - 1
	}
	cur := int64(rng.Intn(int(lines)))
	base := int64(rng.Intn(1<<20)) * line // per-instance offset
	for i := 0; i < records; i++ {
		// Geometric gap around the mean keeps issue bursts realistic.
		gap := 0
		if meanGap > 0 {
			for rng.Float64() > 1/(meanGap+1) {
				gap++
				if gap > 10000 {
					break
				}
			}
		}
		if rng.Bernoulli(p.Sequential) {
			cur = (cur + 1) % lines
		} else {
			cur = int64(rng.Intn(int(lines)))
		}
		t.Records = append(t.Records, Record{
			Gap:   gap,
			Addr:  base + cur*line,
			Write: rng.Bernoulli(p.WriteRatio),
		})
	}
	return t
}

// Catalog returns the workload archetypes the 48 mixes draw from. The
// profiles span cache-resident kernels up to memory-bound random-access
// workloads, mirroring the paper's 10–740 MPKI mix spread. MemFraction
// models the post-L2 access stream reaching the LLC, so profiles whose
// working set exceeds the 16 MiB LLC realize a per-core MPKI of roughly
// MemFraction×1000, SPEC-like (mcf ≈ 90, streams ≈ 30–60, kernels ≈ 0).
func Catalog() []Profile {
	const MiB = 1 << 20
	return []Profile{
		{Name: "kernel-tight", MemFraction: 0.020, WorkingSetBytes: 2 * MiB, Sequential: 0.9, WriteRatio: 0.2},
		{Name: "kernel-blocked", MemFraction: 0.030, WorkingSetBytes: 8 * MiB, Sequential: 0.8, WriteRatio: 0.25},
		{Name: "stream-copy", MemFraction: 0.035, WorkingSetBytes: 256 * MiB, Sequential: 0.97, WriteRatio: 0.45},
		{Name: "stream-triad", MemFraction: 0.045, WorkingSetBytes: 384 * MiB, Sequential: 0.95, WriteRatio: 0.3},
		{Name: "stencil", MemFraction: 0.025, WorkingSetBytes: 128 * MiB, Sequential: 0.7, WriteRatio: 0.3},
		{Name: "graph-walk", MemFraction: 0.050, WorkingSetBytes: 512 * MiB, Sequential: 0.05, WriteRatio: 0.05},
		{Name: "hash-join", MemFraction: 0.045, WorkingSetBytes: 256 * MiB, Sequential: 0.15, WriteRatio: 0.15},
		{Name: "btree-lookup", MemFraction: 0.030, WorkingSetBytes: 192 * MiB, Sequential: 0.1, WriteRatio: 0.05},
		{Name: "sparse-mv", MemFraction: 0.055, WorkingSetBytes: 320 * MiB, Sequential: 0.45, WriteRatio: 0.1},
		{Name: "sort-merge", MemFraction: 0.030, WorkingSetBytes: 160 * MiB, Sequential: 0.75, WriteRatio: 0.35},
		{Name: "mcf-like", MemFraction: 0.090, WorkingSetBytes: 768 * MiB, Sequential: 0.08, WriteRatio: 0.1},
		{Name: "lbm-like", MemFraction: 0.060, WorkingSetBytes: 512 * MiB, Sequential: 0.9, WriteRatio: 0.45},
		{Name: "milc-like", MemFraction: 0.045, WorkingSetBytes: 384 * MiB, Sequential: 0.5, WriteRatio: 0.2},
		{Name: "omnetpp-like", MemFraction: 0.035, WorkingSetBytes: 256 * MiB, Sequential: 0.12, WriteRatio: 0.25},
		{Name: "libq-like", MemFraction: 0.060, WorkingSetBytes: 64 * MiB, Sequential: 0.98, WriteRatio: 0.25},
		{Name: "gcc-like", MemFraction: 0.015, WorkingSetBytes: 48 * MiB, Sequential: 0.5, WriteRatio: 0.3},
	}
}

// Mix is one multi-programmed workload: a named set of per-core traces.
type Mix struct {
	Name   string
	Traces []*Trace
}

// Mixes builds the paper's 48 randomly drawn 8-core workload mixes
// deterministically from a seed. records sets each trace's length.
func Mixes(nMixes, cores, records int, seed uint64) []Mix {
	catalog := Catalog()
	rng := stats.NewRNG(seed)
	mixes := make([]Mix, 0, nMixes)
	for i := 0; i < nMixes; i++ {
		m := Mix{Name: fmt.Sprintf("mix%02d", i)}
		for c := 0; c < cores; c++ {
			p := catalog[rng.Intn(len(catalog))]
			m.Traces = append(m.Traces, p.Generate(records, rng.Uint64()))
		}
		mixes = append(mixes, m)
	}
	return mixes
}
