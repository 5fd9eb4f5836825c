package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/attack"
)

// runShards executes a spec unsharded and as every shard of the given
// count, returning (full, parts).
func runShards(t *testing.T, spec ExperimentSpec, count int) (*Result, []*Result) {
	t.Helper()
	full, err := RunContext(context.Background(), spec, Exec{})
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	var parts []*Result
	for idx := 0; idx < count; idx++ {
		s := spec
		s.Shard = Shard{Index: idx, Count: count}
		r, err := RunContext(context.Background(), s, Exec{})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", idx, count, err)
		}
		parts = append(parts, r)
	}
	return full, parts
}

// checkShardInvariance is the PR's acceptance criterion: merging every
// shard of a spec yields a result byte-identical (canonical JSON) to the
// unsharded run, and the same formatted artifact.
func checkShardInvariance(t *testing.T, spec ExperimentSpec, count int) {
	t.Helper()
	full, parts := runShards(t, spec, count)
	if !full.Complete() {
		t.Fatalf("unsharded run incomplete: %d/%d tasks", len(full.Cells), full.Tasks)
	}
	covered := 0
	for _, p := range parts {
		covered += len(p.Cells)
	}
	if covered != full.Tasks {
		t.Fatalf("shards cover %d cells, want exactly %d (partition broken)", covered, full.Tasks)
	}
	merged, err := MergeResults(parts...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	fullEnc, err := full.Encode()
	if err != nil {
		t.Fatal(err)
	}
	mergedEnc, err := merged.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullEnc, mergedEnc) {
		t.Errorf("merged encoding differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s",
			fullEnc, mergedEnc)
	}
	fullText, err := full.Format()
	if err != nil {
		t.Fatalf("format unsharded: %v", err)
	}
	mergedText, err := merged.Format()
	if err != nil {
		t.Fatalf("format merged: %v", err)
	}
	if fullText == "" {
		t.Error("empty formatted artifact")
	}
	if fullText != mergedText {
		t.Errorf("formatted artifact differs:\n--- unsharded ---\n%s\n--- merged ---\n%s",
			fullText, mergedText)
	}
}

// TestMergeDecodedPartWithFreshPart pins the cache-resume contract: a
// shard result round-tripped through Encode/DecodeResult (whose raw
// JSON picked up the document's indentation) must still merge with a
// freshly computed shard holding compact Meta and cell bytes.
func TestMergeDecodedPartWithFreshPart(t *testing.T) {
	spec, err := NewSpec("fig5", 3, CharParams{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	meta := json.RawMessage(`{"mem_cycles":1000,"benign":"attacker only"}`)
	part0 := &Result{
		Spec:  func() ExperimentSpec { s := spec; s.Shard = Shard{Index: 0, Count: 2}; return s }(),
		Tasks: 2,
		Meta:  meta,
		Cells: map[string]json.RawMessage{"a": json.RawMessage(`{"flips":[1,2]}`)},
	}
	enc, err := part0.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cached, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached.Meta, meta) {
		t.Fatalf("decoded Meta not compacted: %q", cached.Meta)
	}
	fresh := &Result{
		Spec:  func() ExperimentSpec { s := spec; s.Shard = Shard{Index: 1, Count: 2}; return s }(),
		Tasks: 2,
		Meta:  meta,
		Cells: map[string]json.RawMessage{"b": json.RawMessage(`{"flips":[3]}`)},
	}
	merged, err := MergeResults(cached, fresh)
	if err != nil {
		t.Fatalf("merge cached+fresh: %v", err)
	}
	if !merged.Complete() {
		t.Fatalf("merged covers %d/%d cells", len(merged.Cells), merged.Tasks)
	}
}

// TestMergeDeterministicConflictAndBytes pins the mapiter fix in
// MergeResults and DecodeResult: with several conflicting cells, the
// error must name the lexically first key on every run (not whichever
// the map iterator yields), and repeated merges of the same parts must
// encode byte-identically.
func TestMergeDeterministicConflictAndBytes(t *testing.T) {
	spec, err := NewSpec("fig5", 3, CharParams{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	shard := func(idx, count int, cells map[string]json.RawMessage) *Result {
		s := spec
		s.Shard = Shard{Index: idx, Count: count}
		return &Result{Spec: s, Tasks: 4, Meta: json.RawMessage(`{}`), Cells: cells}
	}
	a := shard(0, 2, map[string]json.RawMessage{
		"cell-a": json.RawMessage(`{"v":1}`),
		"cell-b": json.RawMessage(`{"v":2}`),
		"cell-c": json.RawMessage(`{"v":3}`),
	})
	conflict := shard(1, 2, map[string]json.RawMessage{
		"cell-a": json.RawMessage(`{"v":9}`),
		"cell-b": json.RawMessage(`{"v":9}`),
		"cell-c": json.RawMessage(`{"v":9}`),
	})
	// Many iterations so a map-order regression cannot pass by luck:
	// with 3 conflicting cells, 30 runs miss at probability (1/3)^29.
	for i := 0; i < 30; i++ {
		_, err := MergeResults(a, conflict)
		if err == nil {
			t.Fatal("merge of conflicting cells succeeded")
		}
		if want := `core: merge: conflicting cell "cell-a"`; err.Error() != want {
			t.Fatalf("iteration %d: conflict error = %q, want %q", i, err, want)
		}
	}

	b := shard(1, 2, map[string]json.RawMessage{
		"cell-d": json.RawMessage(`{"v":4}`),
	})
	var first []byte
	for i := 0; i < 10; i++ {
		merged, err := MergeResults(a, b)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := merged.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = enc
		} else if !bytes.Equal(enc, first) {
			t.Fatalf("iteration %d: merged encoding differs between runs of the same merge", i)
		}
	}
}

// TestShardMergeInvariance covers one characterization grid, the attack
// grid and the Pareto sweep (plus the two-phase Figure 10), each at two
// shard counts.
func TestShardMergeInvariance(t *testing.T) {
	tinyChar := CharParams{Scale: "tiny", Chips: 2, Iterations: 2}
	cases := []struct {
		name   string
		seed   uint64
		params any
	}{
		{"fig5", 1, tinyChar},
		{"fig8", 1, tinyChar},
		{"attack", 7, AttackParams{
			Patterns:     []attack.Kind{attack.DoubleSided, attack.Scattered},
			Mechanisms:   []MechanismID{MechNone, MechIdeal},
			HCSweep:      []int{512},
			BenignCores:  2,
			TraceRecords: 800,
			MemCycles:    150_000,
			Rows:         1024,
		}},
		{"pareto", 7, ParetoParams{
			Mechanisms:   []MechanismID{MechNone, MechIdeal},
			Schedulers:   []SchedulerID{SchedFRFCFS, SchedBLISS},
			Patterns:     []attack.Kind{attack.DoubleSided},
			HCSweep:      []int{512},
			BenignCores:  2,
			TraceRecords: 800,
			MemCycles:    150_000,
			Rows:         1024,
		}},
		{"fig10", 3, Fig10Params{
			Mixes:        2,
			Cores:        2,
			TraceRecords: 800,
			WarmupInsts:  500,
			MeasureInsts: 5_000,
			HCSweep:      []int{100_000, 2_000},
			Mechanisms:   []MechanismID{MechPARA, MechIdeal},
		}},
		{"trr-dodge", 7, TRRDodgeParams{
			Patterns:    []attack.Kind{attack.DoubleSided},
			DutyCycles:  []float64{0, 0.25},
			Phases:      []float64{0, 0.5},
			SampleRates: []float64{0.5},
			TableSizes:  []int{4},
			HCFirst:     256,
			MemCycles:   150_000,
			Rows:        1024,
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			spec, err := NewSpec(tc.name, tc.seed, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			for _, count := range []int{2, 3} {
				t.Run(fmt.Sprintf("count=%d", count), func(t *testing.T) {
					checkShardInvariance(t, spec, count)
				})
			}
		})
	}
}

// TestParetoBLISSAxes pins the satellite: the BLISS streak/clear spec
// parameters multiply the scheduler axis, each variant carries its
// parameters on the point, and the labels distinguish them.
func TestParetoBLISSAxes(t *testing.T) {
	spec, err := NewSpec("pareto", 7, ParetoParams{
		Mechanisms:   []MechanismID{MechNone},
		Schedulers:   []SchedulerID{SchedBLISS},
		Patterns:     []attack.Kind{attack.DoubleSided},
		HCSweep:      []int{512},
		BenignCores:  2,
		TraceRecords: 600,
		MemCycles:    100_000,
		Rows:         1024,
		BLISSStreaks: []int{2, 8},
		BLISSClears:  []int64{20_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), spec, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	art, err := res.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	sweep := art.(*ParetoSweep)
	if len(sweep.Points) != 2 {
		t.Fatalf("points = %d, want 2 (one per streak value)", len(sweep.Points))
	}
	labels := map[string]bool{}
	for _, p := range sweep.Points {
		if p.Scheduler != SchedBLISS {
			t.Errorf("point scheduler = %s, want BLISS", p.Scheduler)
		}
		if p.BLISSClear != 20_000 {
			t.Errorf("point BLISSClear = %d, want 20000", p.BLISSClear)
		}
		labels[p.SchedulerLabel()] = true
	}
	for _, want := range []string{"BLISS[s=2,c=20000]", "BLISS[s=8,c=20000]"} {
		if !labels[want] {
			t.Errorf("missing scheduler label %q in %v", want, labels)
		}
	}
}

// FuzzDecodeResult feeds DecodeResult the bytes a store file could hold:
// no input may panic it, an accepted result re-encodes to bytes that
// decode and re-encode identically, and splitting its cells into two
// parts by mask (bit i%64 sends the i-th sorted cell to the first part)
// and merging the parts reproduces those bytes, under the unsharded spec
// merging yields. It never formats the artifact: finalize rebuilds the
// spec's grid, which a mutated scale makes arbitrarily expensive.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("encode accepted result: %v", err)
		}
		again, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v\n%s", err, enc)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding changed the canonical bytes:\n%s\nvs\n%s", enc, enc2)
		}

		whole := *r
		whole.Spec = r.Spec.WithoutShard()
		want, err := whole.Encode()
		if err != nil {
			t.Fatal(err)
		}
		parts := [2]*Result{}
		for i := range parts {
			parts[i] = &Result{Spec: r.Spec, Tasks: r.Tasks, Meta: r.Meta, Cells: map[string]json.RawMessage{}}
		}
		for i, key := range sortedCellKeys(r.Cells) {
			parts[mask>>(i%64)&1].Cells[key] = r.Cells[key]
		}
		merged, err := MergeResults(parts[0], parts[1])
		if err != nil {
			t.Fatalf("merging a split of the result: %v", err)
		}
		got, err := merged.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("split and merge changed the bytes:\n%s\nvs\n%s", got, want)
		}
	})
}
