// Package engine is the shared parallel experiment executor behind every
// table/figure runner. It fans a flat task list out over a bounded worker
// pool and collects results in task order, so an experiment's output is
// bit-identical regardless of worker count: parallelism only changes
// wall-clock time, never results.
//
// Three properties make that guarantee hold:
//
//   - Tasks are independent. A task receives only its item, so anything
//     random in it must be seeded from the item, never from scheduling
//     order (DeriveSeed mixes a base seed with a stable index).
//   - Results land in a slice indexed by task position; aggregation
//     happens in the caller, serially, in task order.
//   - On failure, the error of the lowest-index failed task is returned
//     (wrapped in a TaskError), which is the same task for any worker
//     count: tasks are claimed in ascending index order and a claimed
//     task always runs to completion, so no failure can preempt a
//     lower-index task.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options bounds one fan-out.
type Options struct {
	// Workers is the maximum number of concurrent tasks; <= 0 uses all
	// cores (runtime.GOMAXPROCS). Results do not depend on this value.
	Workers int
	// Context, when non-nil, cancels the fan-out: workers check it
	// before claiming each task, so after cancellation at most one
	// in-flight task per worker runs to completion and Map returns the
	// context's error. A nil Context never cancels.
	Context context.Context
}

// DeriveSeed mixes a base seed with a task index through a SplitMix64
// finalizer, decorrelating neighboring tasks.
func DeriveSeed(base, index uint64) uint64 {
	z := base + 0x9e3779b97f4a7c15*(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TaskError wraps a task failure with the index of the task that failed.
type TaskError struct {
	Index int
	Err   error
}

func (e *TaskError) Error() string { return fmt.Sprintf("task %d: %v", e.Index, e.Err) }
func (e *TaskError) Unwrap() error { return e.Err }

// Map runs fn over every item on a bounded worker pool and returns the
// results in item order. On failure it returns the lowest-index task's
// error as a TaskError; remaining unstarted tasks are skipped. If
// Options.Context is canceled mid-run, unclaimed tasks are skipped and
// Map returns the context's error (a task failure takes precedence, so
// the reported error stays deterministic when both happen).
func Map[T, R any](o Options, items []T, fn func(T) (R, error)) ([]R, error) {
	n := len(items)
	results := make([]R, n)
	if n == 0 {
		return results, nil
	}
	errs := make([]error, n)
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx := o.Context
	var next atomic.Int64
	var failed, canceled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx != nil && ctx.Err() != nil {
					canceled.Store(true)
					continue // drain remaining indices without running them
				}
				if failed.Load() {
					continue // drain remaining indices without running them
				}
				r, err := fn(items[i])
				if err != nil {
					errs[i] = &TaskError{Index: i, Err: err}
					failed.Store(true)
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()

	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	if canceled.Load() {
		return nil, ctx.Err()
	}
	return results, nil
}
