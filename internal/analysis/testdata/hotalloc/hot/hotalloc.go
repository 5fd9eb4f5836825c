// Package hot exercises the hotalloc analyzer. The package path is NOT
// simulation-visible: hotalloc is gated by the //rhlint:hotpath
// annotation alone.
package hot

type node struct{ v int }

// sink is a non-hot helper with an interface parameter.
func sink(vals ...any) int { return len(vals) }

//rhlint:hotpath
func appends(xs []int, n int) []int {
	out := make([]int, 0, n) // want `make allocates in hotpath appends`
	for _, x := range xs {
		out = append(out, x) // want `append in hotpath appends`
	}
	return out
}

// cold is identical but unannotated: nothing is reported.
func cold(xs []int, n int) []int {
	out := make([]int, 0, n)
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

//rhlint:hotpath
func literals() (map[string]int, []int, *node) {
	m := map[string]int{} // want `map literal allocates in hotpath literals`
	s := []int{1, 2}      // want `slice literal allocates in hotpath literals`
	p := &node{v: 1}      // want `&composite literal allocates in hotpath literals`
	return m, s, p
}

//rhlint:hotpath
func newAlloc() *node {
	return new(node) // want `new allocates in hotpath newAlloc`
}

//rhlint:hotpath
func capturing(k int) func() int {
	return func() int { return k } // want `closure captures k in hotpath capturing`
}

// globalFn is package scope: referring to it from a literal is not a
// capture, so the closure below is allocation-free (a static funcval).
var globalCounter int

//rhlint:hotpath
func nonCapturing() func() {
	return func() { globalCounter++ }
}

//rhlint:hotpath
func boxesInt(v int64) int {
	return sink(v) // want `interface conversion boxes int64 in hotpath boxesInt` `variadic interface parameter in hotpath boxesInt`
}

//rhlint:hotpath
func boxesStruct(n node) int {
	return sink(n) // want `interface conversion boxes .*node in hotpath boxesStruct` `variadic interface parameter in hotpath boxesStruct`
}

//rhlint:hotpath
func boxesExplicit(v int) any {
	return any(v) // want `interface conversion boxes int in hotpath boxesExplicit`
}

// pointerShaped: a pointer fits in the interface word — no box — but
// the variadic ...any call still allocates its backing slice.
//
//rhlint:hotpath
func pointerShaped(p *node) int {
	return sink(p) // want `variadic interface parameter in hotpath pointerShaped`
}

//rhlint:hotpath
func spawns(f func()) {
	go f() // want `go statement in hotpath spawns`
}

// allowedAmortized: annotated allocation sites are suppressed.
//
//rhlint:hotpath
func allowedAmortized(buf []int, v int) []int {
	//rhlint:allow hotalloc(amortized: callers reuse capacity across calls)
	return append(buf, v)
}

// box is generic: a call to push through box[int] resolves to the
// instantiated method, not the declaration, so its Allocates fact must
// be found through the method's generic origin.
type box[T any] struct{ items []T }

func (b *box[T]) push(v T) { b.items = append(b.items, v) }

//rhlint:hotpath
func pushes(b *box[int]) {
	b.push(1) // want `call to hot\.\(box\)\.push allocates in hotpath pushes: append at hotalloc\.go:\d+`
}

// pushesQuoted repeats pushes with a double-quoted want, which the
// harness unquotes as a Go string before compiling it: the regexp
// escapes are written doubled.
//
//rhlint:hotpath
func pushesQuoted(b *box[int]) {
	b.push(1) // want "call to hot\\.\\(box\\)\\.push allocates in hotpath pushesQuoted"
}

// mk is a generic function: an explicit instantiation mk[int] is an
// index expression around its name, and the call must still find mk's
// Allocates fact.
func mk[T any]() []T { return make([]T, 1) }

//rhlint:hotpath
func instantiates() []int {
	return mk[int]() // want `call to hot\.mk allocates in hotpath instantiates: make at hotalloc\.go:\d+`
}

// pair is instantiated with two type arguments, an index-list
// expression.
func pair[K comparable, V any]() map[K]V { return map[K]V{} }

//rhlint:hotpath
func instantiatesList() map[string]int {
	return pair[string, int]() // want `call to hot\.pair allocates in hotpath instantiatesList: map literal at hotalloc\.go:\d+`
}

// builders is a map of funcs: builders["mk"]() indexes the map, names no
// declared function, and has no fact to consult.
var builders = map[string]func() []int{"mk": mk[int]}

//rhlint:hotpath
func indexesFuncs() []int {
	return builders["mk"]()
}
