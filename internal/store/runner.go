// The cached experiment runner: the one execution path the CLI and the
// HTTP service share. It answers whole-grid requests from the store when
// possible, otherwise splits the grid into shard entries, reuses every
// shard already stored (resume), recomputes only the missing ones, and
// merges byte-identically — so a request's result bytes are the same
// whether they came from a cold run, a warm cache, or any mix.
package store

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// EventStatus labels one step of a cached run's progress.
type EventStatus string

const (
	// StatusCached: the unit was served from the store without running.
	StatusCached EventStatus = "cached"
	// StatusRunning: the unit's tasks are executing.
	StatusRunning EventStatus = "running"
	// StatusDone: the unit finished computing (and was stored).
	StatusDone EventStatus = "done"
	// StatusMerged: all shards are in and the merged whole-grid result
	// was stored.
	StatusMerged EventStatus = "merged"
)

// Event reports per-shard progress of one Runner.Run.
type Event struct {
	Shard  core.Shard  `json:"shard"`
	Status EventStatus `json:"status"`
	// Cells/Tasks: cells this unit holds vs the full grid's task count
	// (known once the unit has run or was loaded; zero before).
	Cells int `json:"cells"`
	Tasks int `json:"tasks"`
}

// Runner executes specs through the store. The zero value (no store)
// runs uncached. A Runner is safe for concurrent Run calls; they share
// the Gate.
type Runner struct {
	// Store caches results; nil disables caching entirely.
	Store *Store
	// Exec bounds each shard run's internal task parallelism.
	Exec core.Exec
	// Shards splits whole-grid specs into this many cacheable shard
	// units (<= 1: run the grid as one unit). Specs that arrive already
	// sharded are always a single unit.
	Shards int
	// NoCache bypasses store reads — everything recomputes — but fresh
	// results are still written back, so -no-cache doubles as a cache
	// refresh.
	NoCache bool
	// Gate, when non-nil, bounds concurrent shard executions across all
	// Run calls sharing it (the service's worker pool): a shard run
	// holds one slot. Cache reads and merges don't take slots.
	Gate chan struct{}
	// OnEvent, when non-nil, observes per-shard progress. It may be
	// called from multiple goroutines when shards run concurrently.
	OnEvent func(Event)
}

// Run executes the spec with caching and resume. It returns the result,
// its exact canonical bytes, and whether the whole request was answered
// from the store without computing anything. A spec that arrives already
// sharded is one cacheable unit keyed by the sharded spec (the
// `rhx run -shard i/n -store` path), never split further; a whole-grid
// spec may be split into Shards units for resumable caching.
func (r *Runner) Run(ctx context.Context, spec core.ExperimentSpec) (*core.Result, []byte, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, false, err
	}
	if spec.Shard.Count <= 1 {
		spec = spec.WithoutShard()
	}
	return r.unit(ctx, spec)
}

func (r *Runner) emit(ev Event) {
	if r.OnEvent != nil {
		r.OnEvent(ev)
	}
}

// acquire takes a worker slot (or returns ctx's error).
func (r *Runner) acquire(ctx context.Context) error {
	if r.Gate == nil {
		return nil
	}
	select {
	case r.Gate <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Runner) release() {
	if r.Gate != nil {
		<-r.Gate
	}
}

// unit serves one cacheable unit, a whole grid or one shard: from the
// store when it holds it, else by computing and storing it. A whole grid
// is computed as Shards shard units when the runner has a store to
// resume them from.
func (r *Runner) unit(ctx context.Context, spec core.ExperimentSpec) (*core.Result, []byte, bool, error) {
	if r.Store != nil && !r.NoCache {
		if res, raw, ok := r.Store.Get(spec); ok {
			r.emit(Event{Shard: spec.Shard, Status: StatusCached, Cells: len(res.Cells), Tasks: res.Tasks})
			return res, raw, true, nil
		}
	}
	compute := r.runUnit
	if spec.Shard.Count == 1 && r.Shards > 1 && r.Store != nil {
		compute = r.split
	}
	res, raw, err := compute(ctx, spec)
	return res, raw, false, err
}

// split computes a whole grid as Shards shard units: it reuses stored
// shard entries, computes the missing ones concurrently (each holding one
// Gate slot), then merges and stores the whole.
func (r *Runner) split(ctx context.Context, whole core.ExperimentSpec) (*core.Result, []byte, error) {
	n := r.Shards
	parts := make([]*core.Result, n)
	errs := make([]error, n)
	done := make(chan int, n)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			shardSpec := whole
			shardSpec.Shard = core.Shard{Index: i, Count: n}
			parts[i], _, _, errs[i] = r.unit(runCtx, shardSpec)
		}(i)
	}
	for range parts {
		<-done
	}
	// Report the lowest-index failure, deterministically.
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	merged, err := core.MergeResults(parts...)
	if err != nil {
		return nil, nil, err
	}
	if !merged.Complete() {
		return nil, nil, fmt.Errorf("store: merged result covers %d/%d tasks", len(merged.Cells), merged.Tasks)
	}
	raw, err := r.put(whole, merged)
	if err != nil {
		return nil, nil, err
	}
	r.emit(Event{Shard: core.Shard{Index: 0, Count: 1}, Status: StatusMerged,
		Cells: len(merged.Cells), Tasks: merged.Tasks})
	return merged, raw, nil
}

// runUnit computes one spec (whole grid or one shard) under a Gate slot
// and writes it back to the store.
func (r *Runner) runUnit(ctx context.Context, spec core.ExperimentSpec) (*core.Result, []byte, error) {
	if err := r.acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer r.release()
	r.emit(Event{Shard: spec.Shard, Status: StatusRunning})
	res, err := core.RunContext(ctx, spec, r.Exec)
	if err != nil {
		return nil, nil, err
	}
	raw, err := r.put(spec, res)
	if err != nil {
		return nil, nil, err
	}
	r.emit(Event{Shard: spec.Shard, Status: StatusDone, Cells: len(res.Cells), Tasks: res.Tasks})
	return res, raw, nil
}

// put writes a result to the store (or just encodes it when no store).
func (r *Runner) put(spec core.ExperimentSpec, res *core.Result) ([]byte, error) {
	if r.Store == nil {
		return res.Encode()
	}
	return r.Store.Put(spec, res)
}
