package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/engine"
)

// Artifact is a finalized experiment output — one of the typed
// table/figure results (*Table1 … *Figure10, *AttackEval, *ParetoSweep),
// all of which render themselves.
type Artifact interface {
	Format() string
}

// experiment is one registry entry. run executes the spec's shard of the
// task grid and returns the raw Result; finalize rebuilds the typed
// artifact from a complete Result (its cells plus meta), re-enumerating
// the grid from the spec so cell order never depends on map iteration.
type experiment struct {
	name        string
	description string
	// params strictly decodes and validates raw spec params (empty = all
	// defaults) and resolves every default, returning the normalized
	// parameter struct the runner reads. Experiments lists params(nil).
	params   func(raw json.RawMessage) (any, error)
	run      func(rc *runCtx) (*Result, error)
	finalize func(res *Result) (Artifact, error)
}

var registry = map[string]*experiment{}

// experimentOrder fixes the listing order of the registry (the paper's
// artifact order, then the post-paper evaluations).
var experimentOrder = []string{
	"table1", "table2", "fig4", "table3", "fig5", "fig6", "fig7",
	"fig8", "table4", "fig9", "table5", "table7", "table8",
	"fig10", "attack", "pareto", "trr-dodge",
}

// register adds an experiment whose params decode into P and resolve
// their defaults through norm. run and finalize receive the normalized
// params, so every reader of a spec's params sees the same values.
func register[P any](name, description string, norm func(P) P,
	run func(rc *runCtx, p P) (*Result, error),
	finalize func(res *Result, p P) (Artifact, error),
) {
	if _, dup := registry[name]; dup {
		panic("core: duplicate experiment " + name)
	}
	params := func(raw json.RawMessage) (P, error) {
		var p P
		if err := decodeParams(raw, &p); err != nil {
			return p, err
		}
		return norm(p), nil
	}
	registry[name] = &experiment{
		name:        name,
		description: description,
		params:      func(raw json.RawMessage) (any, error) { return params(raw) },
		run: func(rc *runCtx) (*Result, error) {
			p, err := params(rc.spec.Params)
			if err != nil {
				return nil, err
			}
			return run(rc, p)
		},
		finalize: func(res *Result) (Artifact, error) {
			p, err := params(res.Spec.Params)
			if err != nil {
				return nil, err
			}
			return finalize(res, p)
		},
	}
}

func lookup(name string) (*experiment, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown experiment %q (see Experiments())", name)
	}
	return e, nil
}

// ExperimentInfo describes one registered experiment for listings.
type ExperimentInfo struct {
	Name        string
	Description string
	// DefaultParams is the experiment's parameter struct with every
	// default resolved, as the runner sees a spec without params.
	DefaultParams json.RawMessage
}

// Experiments lists the registry in canonical order.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	seen := map[string]bool{}
	add := func(name string) {
		e, ok := registry[name]
		if !ok || seen[name] {
			return
		}
		seen[name] = true
		p, _ := e.params(nil) // empty params always decode
		raw, _ := json.Marshal(p)
		out = append(out, ExperimentInfo{Name: e.name, Description: e.description, DefaultParams: raw})
	}
	for _, name := range experimentOrder {
		add(name)
	}
	var rest []string
	for name := range registry {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		add(name)
	}
	return out
}

// Exec carries execution-only knobs: they change wall-clock behaviour,
// never results, so they live outside the spec.
type Exec struct {
	// Parallelism bounds concurrent tasks (0 = all cores).
	Parallelism int
}

// runCtx is the resolved context one experiment run executes under.
type runCtx struct {
	ctx  context.Context
	spec ExperimentSpec // normalized
	exec Exec
}

// engineOptions is the engine fan-out configuration every grid in this
// run uses: the exec parallelism bound and the run's cancellation
// context.
func (rc *runCtx) engineOptions() engine.Options {
	return engine.Options{Workers: rc.exec.Parallelism, Context: rc.ctx}
}

// RunContext executes a spec's shard of its experiment: the one entry
// point behind rhx, the service and the result store. When ctx is
// canceled (an abandoned HTTP request, SIGINT), in-flight grid tasks
// finish but no new tasks start, and the run returns ctx's error.
func RunContext(ctx context.Context, spec ExperimentSpec, ex Exec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	exp, err := lookup(spec.Name)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return exp.run(&runCtx{ctx: ctx, spec: spec.normalized(), exec: ex})
}

// Result is one run's output: the spec it came from, the full grid's
// task count, shard-invariant metadata, and one cell per executed task,
// keyed by the task's stable key. Results encode canonically (sorted
// cell keys), so merging every shard of a spec reproduces the unsharded
// run's bytes exactly.
type Result struct {
	Spec ExperimentSpec `json:"spec"`
	// Tasks is the size of the full (unsharded) task grid.
	Tasks int `json:"tasks"`
	// Meta holds experiment-level data every shard computes identically
	// (baseline measurements, window geometry); Merge verifies equality.
	Meta json.RawMessage `json:"meta,omitempty"`
	// Cells maps task key → that task's canonical JSON payload.
	Cells map[string]json.RawMessage `json:"cells"`
}

// Complete reports whether the result covers the whole task grid.
func (r *Result) Complete() bool { return len(r.Cells) == r.Tasks }

// Encode renders the result as canonical JSON: normalized spec, sorted
// cell keys (Go maps marshal in key order), two-space indent, trailing
// newline. Two complete results of the same spec — however their cells
// were produced, one process or many — encode byte-identically.
func (r *Result) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeResult parses an encoded Result. Raw JSON fields (Meta, cells)
// are re-compacted: they would otherwise keep the two-space indentation
// of the encoded document, and Merge compares them byte-for-byte
// against freshly computed parts, which are always compact.
func DecodeResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("core: bad result: %w", err)
	}
	if err := r.Spec.Validate(); err != nil {
		return nil, err
	}
	r.Spec = r.Spec.normalized()
	if r.Cells == nil {
		r.Cells = map[string]json.RawMessage{}
	}
	meta, err := compactRaw(r.Meta)
	if err != nil {
		return nil, fmt.Errorf("core: bad result meta: %w", err)
	}
	r.Meta = meta
	// Sorted keys so a document with several bad cells always reports the
	// same one, whatever map-iteration order the runtime picks.
	for _, key := range sortedCellKeys(r.Cells) {
		c, err := compactRaw(r.Cells[key])
		if err != nil {
			return nil, fmt.Errorf("core: bad result cell %q: %w", key, err)
		}
		r.Cells[key] = c
	}
	return &r, nil
}

// sortedCellKeys returns the cell keys in lexical order. Every loop over
// a Cells map that can error, write output, or otherwise observe order
// must iterate this instead of the map (see docs/LINT.md, mapiter).
func sortedCellKeys(cells map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(cells))
	for key := range cells {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// compactRaw strips insignificant whitespace from a raw JSON value.
func compactRaw(raw json.RawMessage) (json.RawMessage, error) {
	if len(raw) == 0 {
		return raw, nil
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

// MergeResults combines shard results of one spec into one result whose
// spec is the unsharded identity. Cells are unioned; overlapping cells
// must agree byte-for-byte, and metadata must be identical across all
// parts (every shard recomputes it from the same seed, so disagreement
// means the parts came from different specs).
func MergeResults(parts ...*Result) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: nothing to merge")
	}
	base := parts[0]
	want := base.Spec.WithoutShard()
	merged := &Result{
		Spec:  want,
		Tasks: base.Tasks,
		Meta:  base.Meta,
		Cells: make(map[string]json.RawMessage, base.Tasks),
	}
	for i, p := range parts {
		got := p.Spec.WithoutShard()
		if got.Name != want.Name || got.Seed != want.Seed || !bytes.Equal(got.Params, want.Params) {
			return nil, fmt.Errorf("core: merge: part %d is %q seed=%d, want %q seed=%d with identical params",
				i, got.Name, got.Seed, want.Name, want.Seed)
		}
		if p.Tasks != merged.Tasks {
			return nil, fmt.Errorf("core: merge: part %d reports %d tasks, want %d", i, p.Tasks, merged.Tasks)
		}
		if !bytes.Equal(p.Meta, merged.Meta) {
			return nil, fmt.Errorf("core: merge: part %d metadata differs from part 0", i)
		}
		// Sorted keys: with several conflicting cells, the error must name
		// the same cell on every run and every worker process.
		for _, key := range sortedCellKeys(p.Cells) {
			cell := p.Cells[key]
			if prev, dup := merged.Cells[key]; dup {
				if !bytes.Equal(prev, cell) {
					return nil, fmt.Errorf("core: merge: conflicting cell %q", key)
				}
				continue
			}
			merged.Cells[key] = cell
		}
	}
	return merged, nil
}

// Artifact rebuilds the experiment's typed artifact (e.g. *Figure5) from
// a complete result. Incomplete results — missing shards — are an error
// naming the first absent cell.
func (r *Result) Artifact() (Artifact, error) {
	exp, err := lookup(r.Spec.Name)
	if err != nil {
		return nil, err
	}
	if !r.Complete() {
		return nil, fmt.Errorf("core: result covers %d/%d tasks; merge the remaining shards first",
			len(r.Cells), r.Tasks)
	}
	return exp.finalize(r)
}

// Format renders the complete result's artifact.
func (r *Result) Format() (string, error) {
	art, err := r.Artifact()
	if err != nil {
		return "", err
	}
	return art.Format(), nil
}

// --- shared grid machinery -------------------------------------------------

// gridResult runs the shard-owned subset of a keyed task list on the
// engine and assembles the Result. fn receives each task's seed, derived
// from the spec's seed and the task's GLOBAL grid index, so a task
// computes identical bytes in every shard/count partition. meta may be
// nil.
func gridResult[T, C any](rc *runCtx, meta any, keys []string, items []T,
	fn func(item T, seed uint64) (C, error),
) (*Result, error) {
	if len(keys) != len(items) {
		return nil, fmt.Errorf("core: %s: %d keys for %d tasks", rc.spec.Name, len(keys), len(items))
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			return nil, fmt.Errorf("core: %s: duplicate task key %q", rc.spec.Name, k)
		}
		seen[k] = true
	}
	var mine []int
	for i, k := range keys {
		if rc.spec.Shard.owns(k) {
			mine = append(mine, i)
		}
	}
	cells, err := engine.Map(rc.engineOptions(), mine, func(gi int) (json.RawMessage, error) {
		c, err := fn(items[gi], engine.DeriveSeed(rc.spec.Seed, uint64(gi)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", keys[gi], err)
		}
		raw, err := json.Marshal(c)
		if err != nil {
			return nil, fmt.Errorf("%s: encode cell: %w", keys[gi], err)
		}
		return raw, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: rc.spec, Tasks: len(keys), Cells: make(map[string]json.RawMessage, len(mine))}
	for si, gi := range mine {
		res.Cells[keys[gi]] = cells[si]
	}
	if meta != nil {
		raw, err := json.Marshal(meta)
		if err != nil {
			return nil, fmt.Errorf("core: %s: encode meta: %w", rc.spec.Name, err)
		}
		res.Meta = raw
	}
	return res, nil
}

// cellsInOrder decodes the cells for an ordered key list into typed
// values, erroring on the first missing key.
func cellsInOrder[C any](res *Result, keys []string) ([]C, error) {
	out := make([]C, len(keys))
	for i, k := range keys {
		raw, ok := res.Cells[k]
		if !ok {
			return nil, fmt.Errorf("core: result missing cell %q", k)
		}
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("core: cell %q: %w", k, err)
		}
	}
	return out, nil
}
