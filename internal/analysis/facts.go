package analysis

// The fact mechanism: typed, per-object facts that flow across package
// boundaries, mirroring the golang.org/x/tools/go/analysis design on
// the standard library alone. An analyzer that declares FactTypes may
// attach a fact to any package-level function (or method) it analyzes;
// when a *different* package is analyzed later, the analyzer can ask
// for the facts of the functions it calls. This is what turns the
// per-function syntactic checks into interprocedural ones: hotalloc
// learns that an un-annotated helper three packages away allocates,
// wallclock learns that a clean-looking wrapper eventually reaches
// time.Now, seedflow learns that a constructor wrapper really does
// return a derived PRNG.
//
// Facts live in memory: one store persists across the dependencies-first
// package walk (load.go), so a package's facts exist before any of its
// dependents is analyzed. No fact file is written or read.
//
// Objects are identified by a stable textual key rather than by
// go/types object identity. Facts only attach to package-level
// functions and methods, so the key is simply "FuncName" or
// "RecvTypeName.MethodName" — the subset of x/tools' objectpath this
// suite needs.

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a typed message attached to a package-level function or
// method, produced in the defining package and consumed in dependents.
// Implementations are pointers to structs.
type Fact interface {
	AFact() // dummy method to mark fact types
}

// --- concrete fact types ----------------------------------------------------

// Allocates records that calling the function allocates on at least one
// path: either directly (append/make/new, composite literals, capturing
// closures, boxing) or by calling something that does. Why carries a
// human-readable call chain down to the concrete allocation site, e.g.
//
//	calls memctrl.grow: append at queue.go:120
//
// so the diagnostic at a hotpath call site names the offending path.
type Allocates struct {
	Why string
}

func (*Allocates) AFact() {}

func (f *Allocates) String() string { return fmt.Sprintf("allocates(%s)", f.Why) }

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

func (*Impure) AFact() {}

func (f *Impure) String() string { return fmt.Sprintf("impure(%s)", f.Why) }

// kinds renders the impurity set for diagnostics ("time.Now, os.Getenv").
func (f *Impure) kinds() string {
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
	out := ""
	for i, k := range s {
		if i > 0 {
			out += ", "
		}
		out += k
	}
	return out
}

// ReturnsDerivedPRNG records that every PRNG the function returns is
// derived: constructed from a seed-traced value, forked from an
// existing generator, or obtained from another function carrying this
// fact. seedflow treats calls to such functions as fresh, derived
// generators — and, crucially, does NOT extend that trust to PRNG-
// returning functions without the fact (shared-global accessors).
type ReturnsDerivedPRNG struct{}

func (*ReturnsDerivedPRNG) AFact() {}

func (f *ReturnsDerivedPRNG) String() string { return "returnsDerivedPRNG" }

// --- object keys ------------------------------------------------------------

// objectKey returns the stable intra-package key for a package-level
// function or method, or "" for objects facts cannot attach to
// (locals, variables, imported-package aliases, interface methods of
// anonymous types).
func objectKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := sig.Recv()
	if recv == nil {
		// Package-level function — but only if it really is package
		// scope (not a local closure assigned to a name).
		if fn.Parent() != nil && fn.Parent() != fn.Pkg().Scope() {
			return ""
		}
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "" // methods on anonymous/interface types
	}
	return named.Obj().Name() + "." + fn.Name()
}

// --- the store --------------------------------------------------------------

// factKey addresses one fact: (package, object, concrete fact type).
type factKey struct {
	pkg string
	obj string
	typ reflect.Type
}

// A FactStore holds every fact known to one walk: the facts of the
// packages analyzed so far.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[factKey]Fact{}}
}

func (s *FactStore) put(pkg, obj string, f Fact) {
	s.m[factKey{pkg, obj, reflect.TypeOf(f)}] = f
}

// get copies the stored fact matching ptr's concrete type into ptr.
func (s *FactStore) get(pkg, obj string, ptr Fact) bool {
	f, ok := s.m[factKey{pkg, obj, reflect.TypeOf(ptr)}]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// Len reports the number of stored facts (tests and -json summary).
func (s *FactStore) Len() int { return len(s.m) }

// --- Pass-facing API --------------------------------------------------------

// ExportObjectFact attaches fact to obj, which must be a package-level
// function or method of any package in the build (usually the one under
// analysis). No-op for objects facts cannot attach to.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.Facts == nil || obj == nil || obj.Pkg() == nil {
		return
	}
	key := objectKey(obj)
	if key == "" {
		return
	}
	p.Facts.put(obj.Pkg().Path(), key, fact)
}

// ImportObjectFact copies the fact of obj's concrete type into ptr and
// reports whether one was found. Works for objects of the current
// package and of any dependency the walk has already analyzed.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if p.Facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	key := objectKey(obj)
	if key == "" {
		return false
	}
	return p.Facts.get(obj.Pkg().Path(), key, ptr)
}
