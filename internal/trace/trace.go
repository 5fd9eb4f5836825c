// Package trace generates and encodes the synthetic workload traces that
// substitute for the paper's SPEC CPU2006 mixes (Section 6.2.1): per-core
// streams of instruction records replayed by the simple core model. A
// record says "execute N non-memory instructions, then one memory
// instruction at address A". Profiles span the paper's memory-intensity
// range (mix MPKIs from 10 to 740).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Record is one trace entry: Gap non-memory instructions followed by one
// memory access. NoCache marks a flush+load (the clflush-based access
// RowHammer attack code uses): the LLC invalidates any cached copy and
// forwards the read straight to the memory controller without allocating.
//
// Requester is the explicit source/thread ID of the access for traces that
// capture multi-threaded attribution (trace format v2). The default 0
// means "unattributed": the replaying core substitutes its own ID, so
// per-core synthetic traces need not set it.
type Record struct {
	Gap       int
	Addr      int64
	Write     bool
	NoCache   bool
	Requester int
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

// MemoryAccesses returns the number of memory instructions per pass.
func (t *Trace) MemoryAccesses() int { return len(t.Records) }

// Encode writes the trace in text format v2: "gap addr R|W|F [requester]",
// one record per line ("F" is an uncached flush+load), with a header
// comment carrying the format version and the replay parameters
// (PassStride, Span) so a decoded trace pass-shifts exactly like the
// original. The requester field is written only when nonzero, so v2 output
// for unattributed traces stays line-compatible with v1 readers.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace %s v2 records=%d stride=%d span=%d\n",
		t.Name, len(t.Records), t.PassStride, t.Span); err != nil {
		return err
	}
	for i, r := range t.Records {
		op := "R"
		switch {
		case r.Write && r.NoCache:
			// No op letter exists for an uncached store (the core model
			// has no such access); refusing beats silently dropping a flag
			// on the round trip.
			return fmt.Errorf("trace: record %d: Write and NoCache are mutually exclusive", i)
		case r.Write:
			op = "W"
		case r.NoCache:
			op = "F"
		}
		if r.Requester < 0 {
			return fmt.Errorf("trace: record %d: negative requester %d", i, r.Requester)
		}
		var err error
		if r.Requester != 0 {
			_, err = fmt.Fprintf(bw, "%d %d %s %d\n", r.Gap, r.Addr, op, r.Requester)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d %s\n", r.Gap, r.Addr, op)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode parses the text format produced by Encode: both v2 (with an
// optional fourth requester field per record) and the original
// un-versioned v1 format (three fields, Requester 0). The trace name is
// the word after a header's leading "trace"; a negative stride or span,
// or an address that a pass offset would push past the int64 range, is
// rejected.
func Decode(r io.Reader) (*Trace, error) {
	t := &Trace{Name: "decoded"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	var maxAddr int64
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) > 2 && fields[1] == "trace" {
				t.Name = fields[2]
			}
			for _, f := range fields {
				switch {
				case strings.HasPrefix(f, "stride="):
					v, err := strconv.ParseInt(f[len("stride="):], 10, 64)
					if err != nil || v < 0 {
						return nil, fmt.Errorf("trace: line %d: bad %q", lineNo, f)
					}
					t.PassStride = v
				case strings.HasPrefix(f, "span="):
					v, err := strconv.ParseInt(f[len("span="):], 10, 64)
					if err != nil || v < 0 {
						return nil, fmt.Errorf("trace: line %d: bad %q", lineNo, f)
					}
					t.Span = v
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 3 or 4 fields, got %d", lineNo, len(fields))
		}
		gap, err := strconv.Atoi(fields[0])
		if err != nil || gap < 0 {
			return nil, fmt.Errorf("trace: line %d: bad gap %q", lineNo, fields[0])
		}
		addr, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || addr < 0 {
			return nil, fmt.Errorf("trace: line %d: bad address %q", lineNo, fields[1])
		}
		var write, noCache bool
		switch fields[2] {
		case "R":
		case "W":
			write = true
		case "F":
			noCache = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", lineNo, fields[2])
		}
		requester := 0
		if len(fields) == 4 {
			requester, err = strconv.Atoi(fields[3])
			if err != nil || requester < 0 {
				return nil, fmt.Errorf("trace: line %d: bad requester %q", lineNo, fields[3])
			}
		}
		t.Records = append(t.Records, Record{Gap: gap, Addr: addr, Write: write, NoCache: noCache, Requester: requester})
		maxAddr = max(maxAddr, addr)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.PassStride != 0 && t.Span > 0 && maxAddr > math.MaxInt64-(t.Span-1) {
		return nil, fmt.Errorf("trace: address %d plus a pass offset below span %d overflows", maxAddr, t.Span)
	}
	return t, nil
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
