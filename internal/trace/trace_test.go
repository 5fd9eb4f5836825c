package trace

import (
	"math"
	"math/big"
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
}
