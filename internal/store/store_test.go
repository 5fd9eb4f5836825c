package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
)

// tinySpec is a fast fig5 grid used throughout: 2 chips x tiny scale.
func tinySpec(t *testing.T) core.ExperimentSpec {
	t.Helper()
	spec, err := core.NewSpec("fig5", 7, core.CharParams{Scale: "tiny", Chips: 2, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runSpec(t *testing.T, spec core.ExperimentSpec) *core.Result {
	t.Helper()
	res, err := core.RunContext(context.Background(), spec, core.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openStore(t)
	spec := tinySpec(t)
	if _, _, ok := s.Get(spec); ok {
		t.Fatal("Get hit on an empty store")
	}
	res := runSpec(t, spec)
	put, err := s.Put(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(put, want) {
		t.Fatal("Put returned different bytes than the result encodes to")
	}
	got, raw, ok := s.Get(spec)
	if !ok {
		t.Fatal("Get miss after Put")
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("Get bytes differ from the stored encoding")
	}
	if !got.Complete() || len(got.Cells) != len(res.Cells) {
		t.Fatalf("decoded result has %d cells, want %d", len(got.Cells), len(res.Cells))
	}
	if _, _, ok := s.Get(spec); !ok {
		t.Fatal("Get missed after Put")
	}

	// GetByHash reaches the same entry.
	hash, err := s.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, byHash, ok := s.GetByHash(hash)
	if !ok || !bytes.Equal(byHash, want) {
		t.Fatal("GetByHash mismatch")
	}
	if _, _, ok := s.GetByHash("no-such"); ok {
		t.Fatal("GetByHash hit on invalid hash")
	}
}

func TestPutRejectsMismatchedSpec(t *testing.T) {
	s := openStore(t)
	spec := tinySpec(t)
	res := runSpec(t, spec)
	other := spec
	other.Seed = 99
	if _, err := s.Put(other, res); err == nil {
		t.Fatal("Put filed a result under a different spec's key")
	}
}

// corrupt applies fn to the entry files of spec, returning the entry dir.
func corrupt(t *testing.T, s *Store, spec core.ExperimentSpec, fn func(dir string)) {
	t.Helper()
	hash, err := s.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := s.entryDir(hash)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("entry missing before corruption: %v", err)
	}
	fn(dir)
}

// TestCorruptionDegradesToMiss is the satellite's core guarantee: every
// corruption mode is a cache miss that heals on the next Put — never
// served bytes.
func TestCorruptionDegradesToMiss(t *testing.T) {
	spec := tinySpec(t)
	res := runSpec(t, spec)
	cases := []struct {
		name string
		fn   func(dir string)
	}{
		{"truncated result", func(dir string) {
			p := filepath.Join(dir, "result.json")
			data, _ := os.ReadFile(p)
			os.WriteFile(p, data[:len(data)/2], 0o644)
		}},
		{"flipped result byte", func(dir string) {
			p := filepath.Join(dir, "result.json")
			data, _ := os.ReadFile(p)
			data[len(data)/3] ^= 0x40
			os.WriteFile(p, data, 0o644)
		}},
		{"digest mismatch", func(dir string) {
			os.WriteFile(filepath.Join(dir, "digest"), []byte("sha256:deadbeef\n"), 0o644)
		}},
		{"spec tampered (hash mismatch)", func(dir string) {
			p := filepath.Join(dir, "spec.json")
			data, _ := os.ReadFile(p)
			os.WriteFile(p, bytes.Replace(data, []byte(`"seed": 7`), []byte(`"seed": 8`), 1), 0o644)
		}},
		{"missing result file", func(dir string) {
			os.Remove(filepath.Join(dir, "result.json"))
		}},
		{"missing spec file", func(dir string) {
			os.Remove(filepath.Join(dir, "spec.json"))
		}},
		{"missing digest", func(dir string) {
			os.Remove(filepath.Join(dir, "digest"))
		}},
		{"garbage result json", func(dir string) {
			raw := []byte("{ not json")
			os.WriteFile(filepath.Join(dir, "result.json"), raw, 0o644)
			os.WriteFile(filepath.Join(dir, "digest"), []byte(digestLine(raw)), 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t)
			if _, err := s.Put(spec, res); err != nil {
				t.Fatal(err)
			}
			corrupt(t, s, spec, tc.fn)
			if _, _, ok := s.Get(spec); ok {
				t.Fatal("Get served a corrupt entry")
			}
			if _, _, ok := s.Get(spec); ok {
				t.Fatal("a second Get hit the quarantined entry")
			}
			// The corrupt entry was quarantined: a fresh Put must heal it
			// and serve good bytes again.
			want, err := s.Put(spec, res)
			if err != nil {
				t.Fatalf("healing Put: %v", err)
			}
			_, raw, ok := s.Get(spec)
			if !ok || !bytes.Equal(raw, want) {
				t.Fatal("store did not heal after corruption + rePut")
			}
		})
	}
}

// TestConcurrentPutSameKey races many goroutines writing the same entry
// (run under -race in CI): every Put must succeed and the surviving
// entry must verify and serve the canonical bytes.
func TestConcurrentPutSameKey(t *testing.T) {
	s := openStore(t)
	spec := tinySpec(t)
	res := runSpec(t, spec)
	want, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Put(spec, res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	_, raw, ok := s.Get(spec)
	if !ok || !bytes.Equal(raw, want) {
		t.Fatal("entry does not verify after concurrent Puts")
	}
	// No staging debris left behind.
	stale, err := os.ReadDir(s.tmpDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Fatalf("%d staging dirs left in tmp/", len(stale))
	}
}

func TestGCRemovesCorruptAndKeepsGood(t *testing.T) {
	s := openStore(t)
	spec := tinySpec(t)
	res := runSpec(t, spec)
	if _, err := s.Put(spec, res); err != nil {
		t.Fatal(err)
	}
	// A second, corrupt entry under a different key.
	spec2 := spec
	spec2.Seed = 8
	res2 := runSpec(t, spec2)
	if _, err := s.Put(spec2, res2); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, spec2, func(dir string) {
		os.WriteFile(filepath.Join(dir, "digest"), []byte("sha256:00\n"), 0o644)
	})
	removed, err := s.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("GC removed %d entries, want 1", removed)
	}
	if _, _, ok := s.Get(spec); !ok {
		t.Fatal("GC removed a good entry")
	}
	if _, _, ok := s.Get(spec2); ok {
		t.Fatal("GC kept a corrupt entry")
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "fig5" {
		t.Fatalf("List = %+v, want the one good fig5 entry", entries)
	}
}

// TestRunnerResume is the PR's acceptance criterion: a partially-cached
// sharded grid recomputes only the missing shards, and the merged result
// is byte-identical to an uncached run.
func TestRunnerResume(t *testing.T) {
	spec := tinySpec(t)

	// Reference: uncached whole-grid run.
	uncached := runSpec(t, spec)
	wantBytes, err := uncached.Encode()
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	s := openStore(t)

	// Pre-seed shards 0 and 2 (as an interrupted earlier run would).
	for _, idx := range []int{0, 2} {
		ss := spec
		ss.Shard = core.Shard{Index: idx, Count: shards}
		if _, err := s.Put(ss, runSpec(t, ss)); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	var events []Event
	r := &Runner{
		Store:  s,
		Shards: shards,
		OnEvent: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	res, raw, hit, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("reported a whole-grid cache hit on a partial cache")
	}
	if !bytes.Equal(raw, wantBytes) {
		t.Fatal("resumed merged bytes differ from the uncached run")
	}
	if !res.Complete() {
		t.Fatal("resumed result incomplete")
	}

	// Exactly one shard (index 1) computed; 0 and 2 came from cache.
	counts := map[EventStatus]int{}
	ranShards := map[string]bool{}
	for _, ev := range events {
		counts[ev.Status]++
		if ev.Status == StatusRunning {
			ranShards[ev.Shard.String()] = true
		}
	}
	if counts[StatusCached] != 2 || counts[StatusRunning] != 1 || counts[StatusDone] != 1 || counts[StatusMerged] != 1 {
		t.Fatalf("event counts = %v, want 2 cached / 1 running / 1 done / 1 merged", counts)
	}
	if !ranShards["1/3"] || len(ranShards) != 1 {
		t.Fatalf("computed shards = %v, want exactly 1/3", ranShards)
	}

	// The merge was stored under the whole-grid key: a second Run is a
	// pure hit with identical bytes and no tasks run.
	events = nil
	_, raw2, hit2, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second Run was not a whole-grid cache hit")
	}
	if !bytes.Equal(raw2, wantBytes) {
		t.Fatal("cache-hit bytes differ from the uncached run")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, ev := range events {
		if ev.Status == StatusRunning || ev.Status == StatusDone {
			t.Fatalf("cache hit ran tasks: %+v", ev)
		}
	}
}

// TestRunnerColdSplitMatchesUncached: a cold sharded Runner run (nothing
// cached) still produces the uncached bytes, and populates shard + whole
// entries.
func TestRunnerColdSplitMatchesUncached(t *testing.T) {
	spec := tinySpec(t)
	want, err := runSpec(t, spec).Encode()
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t)
	r := &Runner{Store: s, Shards: 3, Gate: make(chan struct{}, 2)}
	_, raw, hit, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit || !bytes.Equal(raw, want) {
		t.Fatalf("cold split run: hit=%v, bytes equal=%v", hit, bytes.Equal(raw, want))
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 { // 3 shards + merged whole
		t.Fatalf("store holds %d entries after cold split run, want 4", len(entries))
	}
}

// TestRunnerNoCacheRecomputesButRefreshes: NoCache bypasses reads (even
// on a warm store) and still writes results back.
func TestRunnerNoCacheRecomputesButRefreshes(t *testing.T) {
	spec := tinySpec(t)
	s := openStore(t)
	var events []Event
	r := &Runner{Store: s, OnEvent: func(ev Event) { events = append(events, ev) }}
	if _, _, _, err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	r.NoCache = true
	events = nil
	_, _, hit, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("NoCache run reported a cache hit")
	}
	ran := false
	for _, ev := range events {
		if ev.Status == StatusRunning {
			ran = true
		}
	}
	if !ran {
		t.Fatal("NoCache run did not recompute")
	}
	if _, _, ok := s.Get(spec); !ok {
		t.Fatal("NoCache run did not refresh the store")
	}
}

// TestRunnerShardedSpecUnit: an explicitly sharded spec caches under its
// own sharded key and round-trips bytes.
func TestRunnerShardedSpecUnit(t *testing.T) {
	spec := tinySpec(t)
	spec.Shard = core.Shard{Index: 1, Count: 2}
	want, err := runSpec(t, spec).Encode()
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t)
	r := &Runner{Store: s}
	_, raw, hit, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit || !bytes.Equal(raw, want) {
		t.Fatal("sharded unit cold run mismatch")
	}
	_, raw2, hit2, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 || !bytes.Equal(raw2, want) {
		t.Fatal("sharded unit warm run was not a byte-identical hit")
	}
	// The whole-grid key is untouched.
	if _, _, ok := s.Get(spec.WithoutShard()); ok {
		t.Fatal("sharded unit polluted the whole-grid key")
	}
}

// TestRunnerCancellation: canceling the context aborts a sharded run
// promptly with the context error.
func TestRunnerCancellation(t *testing.T) {
	spec := tinySpec(t)
	s := openStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Store: s, Shards: 2}
	_, _, _, err := r.Run(ctx, spec)
	if err == nil {
		t.Fatal("canceled run succeeded")
	}
	if ctx.Err() == nil {
		t.Fatal("context not canceled?")
	}
}
