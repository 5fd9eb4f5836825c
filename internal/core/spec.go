package core

// The declarative experiment API. Every paper artifact (and every
// post-paper evaluation) is a named experiment in a registry; one
// JSON-serializable ExperimentSpec — name, parameters, seed, shard —
// fully determines a run. RunContext enumerates the experiment's task
// grid deterministically, keeps the tasks the spec's shard owns (stable
// task-key hashing, so any shard/count partition covers the grid exactly
// once), fans them out over the deterministic engine, and returns a
// Result whose canonical encoding merges with the other shards' into the
// byte-identical artifact a single-process run would produce.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Shard selects one slice of an experiment's task grid: shard Index of
// Count. The zero Shard (or Count ≤ 1) is the whole grid. Task ownership
// is decided by hashing the task's stable key, never by position, so
// running every Index in 0..Count-1 covers the grid exactly once for any
// Count.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// normalized maps the zero value to the canonical unsharded form 0/1.
func (s Shard) normalized() Shard {
	if s.Count <= 1 {
		return Shard{Index: 0, Count: 1}
	}
	return s
}

// Validate rejects impossible shards.
func (s Shard) Validate() error {
	n := s.normalized()
	if n.Index < 0 || n.Index >= n.Count {
		return fmt.Errorf("core: shard index %d out of range for count %d", s.Index, s.Count)
	}
	return nil
}

func (s Shard) String() string {
	n := s.normalized()
	return fmt.Sprintf("%d/%d", n.Index, n.Count)
}

// ParseShard parses the CLI form "index/count" (e.g. "2/8").
func ParseShard(v string) (Shard, error) {
	parts := strings.Split(v, "/")
	if len(parts) != 2 {
		return Shard{}, fmt.Errorf("core: shard %q not of the form index/count", v)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	cnt, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil || cnt < 1 {
		return Shard{}, fmt.Errorf("core: shard %q not of the form index/count", v)
	}
	s := Shard{Index: idx, Count: cnt}
	if err := s.Validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// owns reports whether this shard runs the task with the given stable
// key. Ownership hashes the key alone, so it is independent of grid
// order, shard index enumeration, and everything else about the run.
func (s Shard) owns(key string) bool {
	n := s.normalized()
	if n.Count == 1 {
		return true
	}
	return int(keyHash(key)%uint64(n.Count)) == n.Index
}

// keyHash is FNV-1a over the key bytes: stable across processes and Go
// versions (unlike maphash), which shard partitioning requires.
func keyHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// ExperimentSpec is the declarative description of one experiment run:
// which registered experiment, with which parameters, from which seed,
// over which shard of the task grid. It round-trips through JSON, so a
// spec file plus a shard assignment is everything a worker process needs.
type ExperimentSpec struct {
	// Name selects a registered experiment ("table1" … "fig10",
	// "attack", "pareto", "trr-dodge"; see Experiments()).
	Name string `json:"name"`
	// Seed is the base seed of every derived per-task seed; 0 means 1.
	Seed uint64 `json:"seed,omitempty"`
	// Shard selects the slice of the task grid this run executes.
	Shard Shard `json:"shard"`
	// Params holds the experiment-specific parameters as raw JSON,
	// decoded strictly (unknown fields are errors) against the
	// experiment's parameter struct. Empty means all defaults.
	Params json.RawMessage `json:"params,omitempty"`
}

// normalized canonicalizes the spec: seed 0 → 1, shard → 0/1 form,
// params compacted so encodings compare byte-for-byte.
func (s ExperimentSpec) normalized() ExperimentSpec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	s.Shard = s.Shard.normalized()
	if len(s.Params) > 0 {
		var buf bytes.Buffer
		if json.Compact(&buf, s.Params) == nil {
			s.Params = json.RawMessage(buf.Bytes())
		}
	}
	return s
}

// Validate checks the spec against the registry: the name must be
// registered, the shard possible, and the params must decode strictly
// into the experiment's parameter struct.
func (s ExperimentSpec) Validate() error {
	exp, err := lookup(s.Name)
	if err != nil {
		return err
	}
	if err := s.Shard.Validate(); err != nil {
		return err
	}
	_, err = exp.params(s.Params)
	return err
}

// Encode renders the spec as canonical JSON (normalized, two-space
// indented, trailing newline).
func (s ExperimentSpec) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s.normalized(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WithoutShard returns the normalized whole-grid identity of the spec:
// the same experiment, seed and params with the shard erased. Two specs
// that differ only in shard assignment share a WithoutShard identity —
// the key the result store files whole-grid artifacts under, and the
// identity results being merged must share.
func (s ExperimentSpec) WithoutShard() ExperimentSpec {
	n := s.normalized()
	n.Shard = Shard{Index: 0, Count: 1}
	return n
}

// SpecHash returns the lowercase hex SHA-256 of the spec's canonical
// encoding (Encode: normalized seed/shard, compacted params, two-space
// indent, trailing newline). It is the spec's content address: every
// byte of the canonical encoding — including the shard — contributes, so
// a sharded spec hashes differently from its WithoutShard identity, and
// any change to the canonical encoding changes every hash (the golden
// tests pin this, because a silent change would invalidate every cache).
func (s ExperimentSpec) SpecHash() (string, error) {
	b, err := s.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// DecodeSpec parses a spec from JSON, rejecting unknown top-level fields,
// and validates it against the registry.
func DecodeSpec(data []byte) (ExperimentSpec, error) {
	var s ExperimentSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return ExperimentSpec{}, fmt.Errorf("core: bad experiment spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return ExperimentSpec{}, err
	}
	return s.normalized(), nil
}

// NewSpec builds a validated spec from a name, seed and a parameter
// struct (nil for all defaults).
func NewSpec(name string, seed uint64, params any) (ExperimentSpec, error) {
	s := ExperimentSpec{Name: name, Seed: seed}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			return ExperimentSpec{}, err
		}
		if !bytes.Equal(raw, []byte("{}")) && !bytes.Equal(raw, []byte("null")) {
			s.Params = raw
		}
	}
	if err := s.Validate(); err != nil {
		return ExperimentSpec{}, err
	}
	return s.normalized(), nil
}

// paramsValidator lets a parameter struct add semantic checks beyond
// strict field decoding (e.g. rejecting non-positive axis values), so
// bad specs fail at validation time rather than mid-run.
type paramsValidator interface{ Validate() error }

// decodeParams strictly decodes raw params into an experiment's
// parameter struct; empty raw leaves the defaults untouched.
func decodeParams(raw json.RawMessage, into any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("core: bad experiment params: %w", err)
	}
	if v, ok := into.(paramsValidator); ok {
		return v.Validate()
	}
	return nil
}
