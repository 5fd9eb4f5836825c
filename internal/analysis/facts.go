package analysis

// Facts: per-function results that flow across package boundaries. A
// fact analyzer attaches a fact to the package-level functions and
// methods of the package it analyzes; when a dependent package is
// analyzed later, it looks up the facts of the functions that package
// calls. This is what turns the per-function syntactic checks into
// interprocedural ones: hotalloc learns that an un-annotated helper
// three packages away allocates, wallclock learns that a clean-looking
// wrapper eventually reaches time.Now, seedflow learns that a
// constructor wrapper really does return a derived PRNG.
//
// A fact is keyed by the declared *types.Func. Load source-checks every
// module package with one loader, dependencies first, so the function a
// dependent calls is the very object its own package declared; the one
// call whose object is not the declaration, a method of an instantiated
// generic type, is mapped back to it by callee. Facts live in memory
// for the length of one walk.

import (
	"go/types"
	"strings"
)

// Impure records that the function reads ambient process state — wall
// clock, the global math/rand generator, or the environment — directly
// or through any chain of callees. Why names the chain down to the
// leaf call.
type Impure struct {
	TimeNow    bool
	GlobalRand bool
	Getenv     bool
	Why        string
}

// kinds renders the impurity set for diagnostics ("wall-clock time,
// the environment").
func (f Impure) kinds() string {
	var s []string
	if f.TimeNow {
		s = append(s, "wall-clock time")
	}
	if f.GlobalRand {
		s = append(s, "the global math/rand generator")
	}
	if f.Getenv {
		s = append(s, "the environment")
	}
	return strings.Join(s, ", ")
}

// A FactStore holds every fact known to one walk, one table per fact:
// the facts of the packages analyzed so far.
type FactStore struct {
	// allocates holds the Allocates fact: calling the function
	// allocates on at least one path, either directly (append/make/new,
	// composite literals, capturing closures, boxing) or by calling
	// something that does. The value is a human-readable call chain down
	// to the concrete allocation site, e.g.
	//
	//	calls memctrl.grow at queue.go:88: append at queue.go:120
	//
	// so the diagnostic at a hotpath call site names the offending path.
	allocates map[*types.Func]string
	// impure holds the Impure fact.
	impure map[*types.Func]Impure
	// derived holds the ReturnsDerivedPRNG fact: every PRNG the function
	// returns is derived — constructed from a seed-traced value, forked
	// from an existing generator, or obtained from another function
	// carrying this fact. seedflow treats calls to such functions as
	// fresh, derived generators — and, crucially, does NOT extend that
	// trust to PRNG-returning functions without the fact (shared-global
	// accessors).
	derived map[*types.Func]bool
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		allocates: map[*types.Func]string{},
		impure:    map[*types.Func]Impure{},
		derived:   map[*types.Func]bool{},
	}
}

// Len reports the number of stored facts (the -json summary).
func (s *FactStore) Len() int { return len(s.allocates) + len(s.impure) + len(s.derived) }
