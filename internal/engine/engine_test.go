package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestMapOrderStable checks that results land in item order and are
// identical across worker counts.
func TestMapOrderStable(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	var runs [][]int
	for _, workers := range []int{1, 3, 16, 0} {
		got, err := Map(Options{Workers: workers}, items, func(x int) (int, error) {
			// Unequal work per task so a racy implementation would
			// reorder completions.
			s := 0
			for j := 0; j < (x%7)*1000; j++ {
				s += j
			}
			_ = s
			return 3*x + 1, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range got {
			if r != 3*i+1 {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, 3*i+1)
			}
		}
		runs = append(runs, got)
	}
	for i := 1; i < len(runs); i++ {
		for j := range runs[0] {
			if runs[i][j] != runs[0][j] {
				t.Fatalf("run %d differs from run 0 at %d", i, j)
			}
		}
	}
}

// TestMapErrorDeterministic checks that a failure surfaces as a TaskError
// for the lowest-index failing task — the same task for any worker count,
// even when several tasks fail.
func TestMapErrorDeterministic(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	boom := errors.New("boom")
	for _, workers := range []int{1, 4, 8} {
		_, err := Map(Options{Workers: workers}, items, func(x int) (int, error) {
			if x == 5 || x == 7 {
				return 0, fmt.Errorf("item %d: %w", x, boom)
			}
			return x, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: error %v does not wrap the task failure", workers, err)
		}
		var te *TaskError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: error %v is not a TaskError", workers, err)
		}
		if te.Index != 5 {
			t.Errorf("workers=%d: TaskError.Index = %d, want 5 (lowest failing)", workers, te.Index)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(Options{}, nil, func(int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestMapEachIndexRunsOnce checks that the atomic claim hands every index
// to exactly one task.
func TestMapEachIndexRunsOnce(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	hits := make([]int, len(items))
	if _, err := Map(Options{Workers: 8}, items, func(i int) (struct{}, error) {
		hits[i]++ // each index owned by exactly one task
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Errorf("task %d ran %d times", i, h)
		}
	}
}

func TestDeriveSeedMixes(t *testing.T) {
	if DeriveSeed(0, 0) == DeriveSeed(0, 1) {
		t.Error("adjacent indices collide")
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("adjacent bases collide")
	}
	if DeriveSeed(5, 9) != DeriveSeed(5, 9) {
		t.Error("not deterministic")
	}
}

// TestMapCancellationBounded is the serve-layer regression: canceling the
// context mid-run stops the fan-out within a bounded number of tasks —
// after the cancel is issued, each worker may finish at most the task it
// already claimed plus one claimed before observing the cancellation.
func TestMapCancellationBounded(t *testing.T) {
	const (
		n          = 10_000
		workers    = 4
		cancelAt   = 8
		slackTasks = 2 * workers // one in-flight + one claim-race per worker
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	_, err := Map(Options{Workers: workers, Context: ctx}, make([]int, n),
		func(int) (struct{}, error) {
			if ran.Add(1) == cancelAt {
				cancel()
			}
			return struct{}{}, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got > cancelAt+slackTasks {
		t.Errorf("ran %d tasks after cancel at %d; want at most %d", got, cancelAt, cancelAt+slackTasks)
	}
}

// TestMapCancelBeforeStart runs nothing at all when the context is
// already canceled.
func TestMapCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Map(Options{Workers: 2, Context: ctx}, make([]int, 100),
		func(int) (struct{}, error) {
			ran.Add(1)
			return struct{}{}, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("ran %d tasks with pre-canceled context, want 0", got)
	}
}

// TestMapTaskErrorBeatsCancel pins the error-precedence contract: when a
// task fails and the context is canceled, the deterministic task error
// wins.
func TestMapTaskErrorBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := fmt.Errorf("boom")
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	_, err := Map(Options{Workers: 2, Context: ctx}, items,
		func(i int) (struct{}, error) {
			if i == 0 {
				cancel()
				return struct{}{}, boom
			}
			return struct{}{}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task error", err)
	}
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 0 {
		t.Fatalf("err = %v, want TaskError{Index: 0}", err)
	}
}
