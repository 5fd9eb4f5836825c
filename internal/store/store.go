// Package store is the content-addressed experiment result store: every
// entry is a canonical Result keyed by the SHA-256 of its spec's
// canonical encoding (core.ExperimentSpec.SpecHash). Whole-grid results
// file under the shard-stripped spec's hash; per-shard results file
// under the sharded spec's hash, which gives resume for free — a
// partially-complete grid reuses the shard entries that exist and only
// recomputes the missing ones (see Runner).
//
// The on-disk layout under the root is one directory per entry:
//
//	objects/<hh>/<hash>/spec.json    canonical spec bytes (hash preimage)
//	objects/<hh>/<hash>/result.json  canonical result bytes
//	objects/<hh>/<hash>/digest       "sha256:<hex of result.json>\n"
//	tmp/                             staging for atomic writes
//
// where <hh> is the first two hex digits of <hash>. Writes stage the
// whole entry in tmp/ and rename the directory into place, so readers
// never observe a partial entry and concurrent writers of the same key
// are safe (determinism makes their contents identical; the loser of the
// rename race discards its copy). Reads verify integrity end to end —
// the directory name must equal the recomputed hash of spec.json, the
// digest must match result.json, and the result's embedded spec must be
// the keyed spec — and any mismatch degrades to a cache miss (the
// corrupt entry is quarantined by removal), never to serving bad bytes.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
)

// Store is a content-addressed result store rooted at one directory.
// The zero value is unusable; call Open. All methods are safe for
// concurrent use by multiple goroutines and multiple processes sharing
// the root.
type Store struct {
	root string
}

// Open initializes (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty root directory")
	}
	s := &Store{root: dir}
	for _, sub := range []string{s.objectsDir(), s.tmpDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) objectsDir() string { return filepath.Join(s.root, "objects") }
func (s *Store) tmpDir() string     { return filepath.Join(s.root, "tmp") }

// entryDir maps a hash to its entry directory.
func (s *Store) entryDir(hash string) string {
	return filepath.Join(s.objectsDir(), hash[:2], hash)
}

// Key returns the content address a spec files under: the hash of its
// canonical encoding. Unsharded (or shard-normalized 0/1) specs key the
// whole-grid entry; sharded specs key their shard's entry.
func (s *Store) Key(spec core.ExperimentSpec) (string, error) {
	h, err := spec.SpecHash()
	if err != nil {
		return "", fmt.Errorf("store: hash spec: %w", err)
	}
	return h, nil
}

// digestLine renders the result-byte digest file content.
func digestLine(result []byte) string {
	sum := sha256.Sum256(result)
	return "sha256:" + hex.EncodeToString(sum[:]) + "\n"
}

// Put stores a result under its spec's content address, atomically
// (stage in tmp, rename into place). The result's spec must match the
// keying spec — a result can only ever be filed under its own identity.
// Put returns the canonical result bytes stored (or already present:
// losing a concurrent Put race to an identical entry is success).
func (s *Store) Put(spec core.ExperimentSpec, res *core.Result) ([]byte, error) {
	specBytes, err := spec.Encode()
	if err != nil {
		return nil, fmt.Errorf("store: encode spec: %w", err)
	}
	resSpecBytes, err := res.Spec.Encode()
	if err != nil {
		return nil, fmt.Errorf("store: encode result spec: %w", err)
	}
	if !bytes.Equal(specBytes, resSpecBytes) {
		return nil, fmt.Errorf("store: result's spec does not match the keying spec")
	}
	resultBytes, err := res.Encode()
	if err != nil {
		return nil, fmt.Errorf("store: encode result: %w", err)
	}
	hash, err := s.Key(spec)
	if err != nil {
		return nil, err
	}

	stage, err := os.MkdirTemp(s.tmpDir(), "put-")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer os.RemoveAll(stage)
	files := []struct {
		name string
		data []byte
	}{
		{"spec.json", specBytes},
		{"result.json", resultBytes},
		{"digest", []byte(digestLine(resultBytes))},
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(stage, f.name), f.data, 0o644); err != nil {
			return nil, fmt.Errorf("store: stage %s: %w", f.name, err)
		}
	}

	dir := s.entryDir(hash)
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(stage, dir); err != nil {
		// A concurrent Put of the same key won the race: the entry
		// exists, and determinism guarantees identical contents.
		if _, statErr := os.Stat(dir); statErr == nil {
			return resultBytes, nil
		}
		return nil, fmt.Errorf("store: commit entry: %w", err)
	}
	return resultBytes, nil
}

// Get loads and verifies the entry for a spec. It returns the decoded
// result plus the exact canonical bytes on disk, or ok=false on a miss.
// Every integrity failure — truncated files, digest mismatch, an entry
// whose spec hash or contents disagree with the key — is a miss, and the
// offending entry is removed so the next Put can heal it.
func (s *Store) Get(spec core.ExperimentSpec) (*core.Result, []byte, bool) {
	hash, err := s.Key(spec)
	if err != nil {
		return nil, nil, false
	}
	res, raw, ok := s.load(hash)
	if !ok {
		return nil, nil, false
	}
	// The keyed spec must be the stored one (hash preimage check makes
	// this a pure belt-and-braces collision guard).
	wantSpec, err := spec.Encode()
	if err != nil {
		return nil, nil, false
	}
	gotSpec, err := res.Spec.Encode()
	if err != nil || !bytes.Equal(wantSpec, gotSpec) {
		s.quarantine(hash)
		return nil, nil, false
	}
	return res, raw, true
}

// GetByHash loads and verifies an entry by its content address alone
// (the service's GET /v1/experiments/{hash} path, where no spec is in
// hand). Verification is identical to Get minus the key-equality check,
// which the hash preimage already implies.
func (s *Store) GetByHash(hash string) (*core.Result, []byte, bool) {
	if !validHash(hash) {
		return nil, nil, false
	}
	return s.load(hash)
}

// load reads and verifies one entry directory.
func (s *Store) load(hash string) (*core.Result, []byte, bool) {
	dir := s.entryDir(hash)
	specBytes, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		if _, statErr := os.Stat(dir); statErr == nil {
			s.quarantine(hash) // torn entry: directory without its spec
		}
		return nil, nil, false
	}
	resultBytes, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		s.quarantine(hash)
		return nil, nil, false
	}
	digest, err := os.ReadFile(filepath.Join(dir, "digest"))
	if err != nil {
		s.quarantine(hash)
		return nil, nil, false
	}

	// 1. The directory name must be the hash of the stored spec bytes.
	sum := sha256.Sum256(specBytes)
	if hex.EncodeToString(sum[:]) != hash {
		s.quarantine(hash)
		return nil, nil, false
	}
	// 2. The result bytes must match their recorded digest (catches
	// truncation and bit rot).
	if string(digest) != digestLine(resultBytes) {
		s.quarantine(hash)
		return nil, nil, false
	}
	// 3. The result must decode, and its embedded spec must re-encode to
	// the stored (hash-verified) spec bytes.
	res, err := core.DecodeResult(resultBytes)
	if err != nil {
		s.quarantine(hash)
		return nil, nil, false
	}
	resSpec, err := res.Spec.Encode()
	if err != nil || !bytes.Equal(resSpec, specBytes) {
		s.quarantine(hash)
		return nil, nil, false
	}
	return res, resultBytes, true
}

// quarantine removes a corrupt entry so it cannot be served again and a
// future Put can replace it. Removal failures are ignored: the entry
// already failed verification, so it will never be served either way.
func (s *Store) quarantine(hash string) {
	os.RemoveAll(s.entryDir(hash))
}

// validHash accepts exactly lowercase-hex SHA-256 strings, keeping
// attacker-supplied hashes (URL path segments) from escaping objects/.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Entry describes one stored object for listings and GC.
type Entry struct {
	Hash    string
	Name    string // experiment name from the stored spec
	Shard   core.Shard
	Bytes   int64     // size of result.json
	ModTime time.Time // of result.json
}

// List enumerates verified entries in hash order. Corrupt entries are
// skipped (and quarantined), not reported.
func (s *Store) List() ([]Entry, error) {
	hashes, err := s.hashes()
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, h := range hashes {
		res, raw, ok := s.load(h)
		if !ok {
			continue
		}
		info, err := os.Stat(filepath.Join(s.entryDir(h), "result.json"))
		if err != nil {
			continue
		}
		out = append(out, Entry{
			Hash:    h,
			Name:    res.Spec.Name,
			Shard:   res.Spec.Shard,
			Bytes:   int64(len(raw)),
			ModTime: info.ModTime(),
		})
	}
	return out, nil
}

// hashes lists every entry directory name under objects/, sorted (the
// two-level fan-out reads in lexical order).
func (s *Store) hashes() ([]string, error) {
	prefixes, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, p := range prefixes {
		if !p.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.objectsDir(), p.Name()))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() && validHash(e.Name()) && strings.HasPrefix(e.Name(), p.Name()) {
				out = append(out, e.Name())
			}
		}
	}
	return out, nil
}

// GC removes entries that fail verification and, when maxAge > 0,
// verified entries whose result is older than maxAge. It returns how
// many entries were removed. Leftover staging directories older than an
// hour are swept too (a crashed Put's debris).
func (s *Store) GC(maxAge time.Duration) (removed int, err error) {
	hashes, err := s.hashes()
	if err != nil {
		return 0, err
	}
	now := time.Now()
	for _, h := range hashes {
		if _, _, ok := s.load(h); !ok {
			removed++ // load already quarantined it
			continue
		}
		if maxAge <= 0 {
			continue
		}
		info, statErr := os.Stat(filepath.Join(s.entryDir(h), "result.json"))
		if statErr != nil {
			continue
		}
		if now.Sub(info.ModTime()) > maxAge {
			s.quarantine(h)
			removed++
		}
	}
	if stale, readErr := os.ReadDir(s.tmpDir()); readErr == nil {
		for _, e := range stale {
			p := filepath.Join(s.tmpDir(), e.Name())
			if info, infoErr := e.Info(); infoErr == nil && now.Sub(info.ModTime()) > time.Hour {
				os.RemoveAll(p)
			}
		}
	}
	return removed, nil
}
