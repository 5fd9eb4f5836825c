package trace

import (
	"bytes"
	"math"
	"math/big"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	p := Catalog()[2] // stream-copy
	a := p.Generate(1000, 42)
	b := p.Generate(1000, 42)
	if len(a.Records) != 1000 || len(b.Records) != 1000 {
		t.Fatalf("record counts %d/%d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c := p.Generate(1000, 43)
	same := 0
	for i := range a.Records {
		if a.Records[i] == c.Records[i] {
			same++
		}
	}
	if same == len(a.Records) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateRespectsProfile(t *testing.T) {
	for _, p := range Catalog() {
		tr := p.Generate(5000, 1)
		writes := 0
		var span int64
		var lo, hi int64 = 1 << 62, 0
		for _, r := range tr.Records {
			if r.Write {
				writes++
			}
			if r.Addr < lo {
				lo = r.Addr
			}
			if r.Addr > hi {
				hi = r.Addr
			}
			if r.Gap < 0 {
				t.Fatalf("%s: negative gap", p.Name)
			}
		}
		span = hi - lo
		if span > p.WorkingSetBytes+(1<<26) {
			t.Errorf("%s: span %d exceeds working set %d", p.Name, span, p.WorkingSetBytes)
		}
		wr := float64(writes) / float64(len(tr.Records))
		if p.WriteRatio > 0 && (wr < p.WriteRatio-0.05 || wr > p.WriteRatio+0.05) {
			t.Errorf("%s: write ratio %.3f, want ≈%.2f", p.Name, wr, p.WriteRatio)
		}
		// Mean gap tracks MemFraction: gap ≈ 1/f − 1.
		totalInsts := tr.Instructions()
		memFrac := float64(len(tr.Records)) / float64(totalInsts)
		if memFrac < p.MemFraction*0.7 || memFrac > p.MemFraction*1.3 {
			t.Errorf("%s: memory fraction %.4f, want ≈%.4f", p.Name, memFrac, p.MemFraction)
		}
	}
}

func TestPassOffsetWrapsWithinSpan(t *testing.T) {
	p := Catalog()[2]
	tr := p.Generate(100, 9)
	f := func(pass uint16) bool {
		off := tr.PassOffset(int64(pass))
		return off >= 0 && off < tr.Span && off == int64(pass)*tr.PassStride%tr.Span
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// pass·PassStride overflows int64 here; the offset must still be the
	// exact residue, and a negative stride still lands inside the span.
	huge := &Trace{PassStride: math.MaxInt64 - 1, Span: 1<<40 + 3}
	for _, pass := range []int64{3, 1 << 40, math.MaxInt64} {
		want := new(big.Int).Mul(big.NewInt(pass), big.NewInt(huge.PassStride))
		want.Mod(want, big.NewInt(huge.Span))
		if got := huge.PassOffset(pass); got != want.Int64() {
			t.Errorf("PassOffset(%d) = %d, want %d", pass, got, want)
		}
	}
	neg := &Trace{PassStride: -1 << 20, Span: 1 << 30}
	for pass := int64(0); pass < 2000; pass++ {
		if off := neg.PassOffset(pass); off < 0 || off >= neg.Span {
			t.Fatalf("negative stride: PassOffset(%d) = %d outside [0, %d)", pass, off, neg.Span)
		}
	}
	if tr.PassOffset(0) != 0 {
		t.Error("pass 0 must have zero offset")
	}
	// Different passes shift the window.
	if tr.PassOffset(1) == 0 {
		t.Error("pass 1 offset is zero; replays would be cache-resident")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := Catalog()[5]
	orig := p.Generate(500, 3)
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name {
		t.Errorf("name %q, want %q", got.Name, orig.Name)
	}
	if len(got.Records) != len(orig.Records) {
		t.Fatalf("records %d, want %d", len(got.Records), len(orig.Records))
	}
	for i := range got.Records {
		if got.Records[i] != orig.Records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// The replay parameters must survive the round trip: without them a
	// decoded trace stops pass-shifting and streaming workloads collapse
	// into cache-resident ones.
	if got.PassStride != orig.PassStride || got.Span != orig.Span {
		t.Errorf("replay params stride=%d span=%d, want stride=%d span=%d",
			got.PassStride, got.Span, orig.PassStride, orig.Span)
	}
	if got.PassOffset(3) != orig.PassOffset(3) {
		t.Errorf("pass offset %d, want %d", got.PassOffset(3), orig.PassOffset(3))
	}
}

func TestEncodeDecodeUncachedRecords(t *testing.T) {
	orig := &Trace{
		Name:       "attack-double-sided",
		PassStride: 0,
		Span:       0,
		Records: []Record{
			{Gap: 63, Addr: 4096, NoCache: true},
			{Gap: 63, Addr: 8192, NoCache: true},
			{Gap: 0, Addr: 64, Write: true},
			{Gap: 1, Addr: 128},
		},
	}
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(orig.Records) {
		t.Fatalf("records %d, want %d", len(got.Records), len(orig.Records))
	}
	for i := range got.Records {
		if got.Records[i] != orig.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], orig.Records[i])
		}
	}
	if !got.Records[0].NoCache || got.Records[2].NoCache {
		t.Error("NoCache flags lost in round trip")
	}
	// An uncached store has no encoding; Encode must refuse rather than
	// silently drop a flag.
	bad := &Trace{Records: []Record{{Addr: 64, Write: true, NoCache: true}}}
	if err := bad.Encode(&bytes.Buffer{}); err == nil {
		t.Error("Write+NoCache record encoded without error")
	}
}

func TestEncodeDecodeRequesterRoundTrip(t *testing.T) {
	orig := &Trace{
		Name: "multi-source",
		Records: []Record{
			{Gap: 3, Addr: 64, Requester: 0},
			{Gap: 0, Addr: 128, Write: true, Requester: 5},
			{Gap: 7, Addr: 4096, NoCache: true, Requester: 2},
			{Gap: 1, Addr: 192, Requester: 11},
		},
	}
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "v2") {
		t.Errorf("encoded header lacks the v2 version tag:\n%s", buf.String())
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(orig.Records) {
		t.Fatalf("records %d, want %d", len(got.Records), len(orig.Records))
	}
	for i := range got.Records {
		if got.Records[i] != orig.Records[i] {
			t.Fatalf("record %d = %+v, want %+v (requester lost?)", i, got.Records[i], orig.Records[i])
		}
	}
	// A negative requester has no encoding.
	bad := &Trace{Records: []Record{{Addr: 64, Requester: -1}}}
	if err := bad.Encode(&bytes.Buffer{}); err == nil {
		t.Error("negative requester encoded without error")
	}
}

func TestDecodeLegacyV1Trace(t *testing.T) {
	// A pre-requester trace: un-versioned header, three fields per line.
	// It must decode exactly as before, with every requester zero.
	legacy := "# trace old records=3 stride=128 span=1024\n" +
		"4 64 R\n" +
		"0 128 W\n" +
		"63 4096 F\n"
	tr, err := Decode(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "old" || tr.PassStride != 128 || tr.Span != 1024 {
		t.Errorf("header lost: %+v", tr)
	}
	want := []Record{
		{Gap: 4, Addr: 64},
		{Gap: 0, Addr: 128, Write: true},
		{Gap: 63, Addr: 4096, NoCache: true},
	}
	if len(tr.Records) != len(want) {
		t.Fatalf("records %d, want %d", len(tr.Records), len(want))
	}
	for i := range want {
		if tr.Records[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, tr.Records[i], want[i])
		}
		if tr.Records[i].Requester != 0 {
			t.Errorf("record %d: legacy trace grew requester %d", i, tr.Records[i].Requester)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []string{
		"1 2",             // missing op
		"x 2 R",           // bad gap
		"1 y R",           // bad addr
		"1 2 Q",           // bad op
		"-1 2 R",          // negative gap
		"1 -2 W",          // negative addr
		"1 2 R extra bit", // too many fields
		"1 2 R x",         // bad requester
		"1 2 R -3",        // negative requester
		// Negative replay parameters: the offsets they produced sent
		// negative addresses into the simulator.
		"# trace t v2 records=1 stride=-1048576 span=1073741824\n0 64 R",
		"# trace t v2 records=1 stride=64 span=-4096\n0 64 R",
		// A pass offset would push this address past the int64 range.
		"# trace t v2 records=1 stride=64 span=4096\n0 9223372036854775800 R",
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("malformed line %q accepted", c)
		}
	}
	// Comments and blank lines are fine.
	tr, err := Decode(strings.NewReader("# trace foo records=1\n\n3 128 W\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "foo" || len(tr.Records) != 1 || !tr.Records[0].Write {
		t.Errorf("decoded %+v", tr)
	}
}

func TestMixesShapeAndDeterminism(t *testing.T) {
	a := Mixes(48, 8, 100, 1)
	if len(a) != 48 {
		t.Fatalf("mixes = %d", len(a))
	}
	for _, m := range a {
		if len(m.Traces) != 8 {
			t.Fatalf("%s has %d traces", m.Name, len(m.Traces))
		}
	}
	b := Mixes(48, 8, 100, 1)
	for i := range a {
		for c := range a[i].Traces {
			if a[i].Traces[c].Name != b[i].Traces[c].Name {
				t.Fatal("mix drawing not deterministic")
			}
		}
	}
}

func TestInstructionsCount(t *testing.T) {
	tr := &Trace{Records: []Record{{Gap: 3}, {Gap: 0}, {Gap: 7}}}
	if got := tr.Instructions(); got != 13 {
		t.Errorf("instructions = %d, want 13", got)
	}
	if tr.MemoryAccesses() != 3 {
		t.Error("memory accesses != 3")
	}
}

// FuzzDecodeTrace drives arbitrary bytes through Decode, the boundary
// trace files cross. Decoding never panics; an accepted trace re-encodes
// and decodes to an equal Trace; and replay never produces a negative
// pass offset or address. The seed corpus (testdata/fuzz/FuzzDecodeTrace)
// holds generated, legacy v1, attributed and rejected traces.
func FuzzDecodeTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("encode accepted trace: %v", err)
		}
		again, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("round trip changed the trace:\n%+v\nvs\n%+v", tr, again)
		}
		for _, pass := range []int64{1, 2, 1 << 32, math.MaxInt64} {
			off := tr.PassOffset(pass)
			if off < 0 || (tr.Span > 0 && off >= tr.Span) {
				t.Fatalf("PassOffset(%d) = %d outside [0, span %d)", pass, off, tr.Span)
			}
			for _, r := range tr.Records {
				if r.Addr+off < 0 {
					t.Fatalf("pass %d moves address %d to %d", pass, r.Addr, r.Addr+off)
				}
			}
		}
	})
}
