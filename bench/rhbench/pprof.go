package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// A minimal reader of the profile.proto format runtime/pprof writes: just
// enough to walk each sample's stack and sum its values per layer. No
// pprof module is available offline, and attribution needs nothing else.

// profile is a decoded pprof profile.
type profile struct {
	sampleTypes []string // "type/unit", e.g. "samples/count"
	samples     []profSample
	frames      map[uint64][]string // location id → function names, innermost first
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// stack returns a sample's function names from the leaf to the root,
// inlined frames included.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, l := range s.locs {
		out = append(out, p.frames[l]...)
	}
	return out
}

var errTruncated = errors.New("pprof: truncated message")

// pb is a cursor over protobuf wire-format bytes.
type pb struct{ b []byte }

func (p *pb) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

func (p *pb) bytes() ([]byte, error) {
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)) {
		return nil, errTruncated
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b, nil
}

func (p *pb) skip(wire int) error {
	var n int
	switch wire {
	case 0:
		_, err := p.varint()
		return err
	case 1:
		n = 8
	case 2:
		_, err := p.bytes()
		return err
	case 5:
		n = 4
	default:
		return fmt.Errorf("pprof: unknown wire type %d", wire)
	}
	if len(p.b) < n {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// each calls fn for every field of the message; fn consumes the value.
func (p *pb) each(fn func(field, wire int) error) error {
	for len(p.b) > 0 {
		key, err := p.varint()
		if err != nil {
			return err
		}
		if err := fn(int(key>>3), int(key&7)); err != nil {
			return err
		}
	}
	return nil
}

// uints appends one element (unpacked) or a packed run of a repeated
// varint field; the Go encoder writes short runs unpacked.
func (p *pb) uints(wire int, dst []uint64) ([]uint64, error) {
	switch wire {
	case 0:
		v, err := p.varint()
		return append(dst, v), err
	case 2:
		b, err := p.bytes()
		if err != nil {
			return dst, err
		}
		q := pb{b}
		for len(q.b) > 0 {
			v, err := q.varint()
			if err != nil {
				return dst, err
			}
			dst = append(dst, v)
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("pprof: repeated varint with wire type %d", wire)
	}
}

// message reads a length-delimited field as a sub-message and walks it.
func (p *pb) message(wire int, fn func(q *pb, field, wire int) error) error {
	if wire != 2 {
		return fmt.Errorf("pprof: message with wire type %d", wire)
	}
	b, err := p.bytes()
	if err != nil {
		return err
	}
	q := &pb{b}
	return q.each(func(f, w int) error { return fn(q, f, w) })
}

// Field numbers of profile.proto.
const (
	fieldSampleType  = 1
	fieldSample      = 2
	fieldLocation    = 4
	fieldFunction    = 5
	fieldStringTable = 6

	valueTypeType = 1
	valueTypeUnit = 2

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes a (possibly gzipped) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	var (
		strs     []string
		types    [][2]uint64
		samples  []profSample
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	top := &pb{data}
	err := top.each(func(field, wire int) error {
		switch field {
		case fieldSampleType:
			var t [2]uint64
			err := top.message(wire, func(q *pb, f, w int) error {
				switch f {
				case valueTypeType, valueTypeUnit:
					v, err := q.varint()
					t[f-1] = v
					return err
				}
				return q.skip(w)
			})
			types = append(types, t)
			return err
		case fieldSample:
			var s profSample
			err := top.message(wire, func(q *pb, f, w int) error {
				var err error
				switch f {
				case sampleLocation:
					s.locs, err = q.uints(w, s.locs)
				case sampleValue:
					var vs []uint64
					vs, err = q.uints(w, nil)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				default:
					err = q.skip(w)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case fieldLocation:
			var id uint64
			var fns []uint64
			err := top.message(wire, func(q *pb, f, w int) error {
				switch f {
				case locationID:
					v, err := q.varint()
					id = v
					return err
				case locationLine:
					return q.message(w, func(l *pb, lf, lw int) error {
						if lf == lineFunction {
							v, err := l.varint()
							fns = append(fns, v)
							return err
						}
						return l.skip(lw)
					})
				}
				return q.skip(w)
			})
			locFuncs[id] = fns
			return err
		case fieldFunction:
			var id, name uint64
			err := top.message(wire, func(q *pb, f, w int) error {
				switch f {
				case functionID:
					v, err := q.varint()
					id = v
					return err
				case functionName:
					v, err := q.varint()
					name = v
					return err
				}
				return q.skip(w)
			})
			funcName[id] = name
			return err
		case fieldStringTable:
			b, err := top.bytes()
			strs = append(strs, string(b))
			return err
		}
		return top.skip(wire)
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{samples: samples, frames: make(map[uint64][]string, len(locFuncs))}
	for _, t := range types {
		p.sampleTypes = append(p.sampleTypes, str(t[0])+"/"+str(t[1]))
	}
	for loc, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcName[f])
		}
		p.frames[loc] = names
	}
	return p, nil
}

// gcRoots mark a stack as garbage-collector work wherever they appear:
// the background mark workers, mutator assists and the background
// sweeper and scavenger.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.gcMark", "runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge",
}

// classify names the layer a stack (leaf first) is charged to: gc when
// any frame is collector work, otherwise the innermost
// repro/internal/<layer> frame, so runtime helpers such as mallocgc and
// map operations go to the layer that called them; anything else is
// runtime.
func classify(frames []string) string {
	for _, f := range frames {
		for _, g := range gcRoots {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return "runtime"
}

// layerOf returns the layer of a repro/internal/<layer> function name, or
// "" for any other function.
func layerOf(fn string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

// attribute sums one sample type's values per layer.
func attribute(p *profile, sampleType string) (map[string]int64, error) {
	idx := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("pprof: no %s samples in profile (have %v)", sampleType, p.sampleTypes)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if idx < len(s.values) {
			out[classify(p.stack(s))] += s.values[idx]
		}
	}
	return out, nil
}

// allocsByLayer snapshots the cumulative heap-allocation profile per
// layer. The profile is as of the last completed GC, so it forces one.
func allocsByLayer() (map[string]int64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return attribute(p, "alloc_objects/count")
}

// layerShares converts per-layer totals to percentages of their sum.
func layerShares(by map[string]int64) map[string]float64 {
	var total int64
	for _, v := range by {
		total += v
	}
	out := map[string]float64{}
	for l, v := range by {
		if total > 0 {
			out[l] = 100 * float64(v) / float64(total)
		}
	}
	return out
}

// profileRep runs fn under the CPU profiler and between two allocation
// snapshots, and returns each layer's share of CPU samples (layers, gc
// and runtime) and of heap objects allocated during fn.
func profileRep(fn func() error) (cpu, allocs map[string]float64, err error) {
	before, err := allocsByLayer()
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if runErr != nil {
		return nil, nil, runErr
	}
	after, err := allocsByLayer()
	if err != nil {
		return nil, nil, err
	}
	delta := map[string]int64{}
	for l, v := range after {
		if d := v - before[l]; d > 0 {
			delta[l] = d
		}
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	bySamples, err := attribute(p, "samples/count")
	if err != nil {
		return nil, nil, err
	}
	return layerShares(bySamples), layerShares(delta), nil
}
