// Package a exercises every direct allocation construct the allocs
// analyzer classifies. The want clauses are fact expectations (the
// x/tools name:"pattern" form): allocs reports no diagnostics — its
// AllocsFact summaries are the product.
package a

import "fmt"

type box struct{ n int }

func MakeMap() map[string]int { // want MakeMap:`allocs\(make map\)`
	return make(map[string]int)
}

func MakeSlice(n int) []int { // want MakeSlice:`allocs\(make slice\)`
	return make([]int, n)
}

func New() *box { // want New:`allocs\(new\)`
	return new(box)
}

func Grow(s []int) []int { // want Grow:`allocs\(append may grow\)`
	return append(s, 1)
}

func SliceLit() []int { // want SliceLit:`allocs\(slice literal\)`
	return []int{1, 2, 3}
}

func MapLit() map[string]int { // want MapLit:`allocs\(map literal\)`
	return map[string]int{"a": 1}
}

func Escape() *box { // want Escape:`allocs\(composite literal escapes\)`
	return &box{n: 1}
}

func Box(n int) any { // want Box:`allocs\(boxed into interface\)`
	return n
}

func BoxArg(n int) { // want BoxArg:`allocs\(boxed into interface\)`
	sink(n)
}

func sink(v any) { _ = v }

func Concat(a, b string) string { // want Concat:`allocs\(string concatenation\)`
	return a + b
}

func Convert(b []byte) string { // want Convert:`allocs\(string conversion\)`
	return string(b)
}

func Closure(n int) func() int { // want Closure:`allocs\(closure captures variables\)`
	return func() int { return n }
}

func Sprintf(name string) string { // want Sprintf:`allocating stdlib call fmt.Sprintf`
	return fmt.Sprintf("hello %s", name)
}

func Spawn() { // want Spawn:`allocs\(go statement\)`
	go noop()
}

func noop() {}

func MethodValue(b *box) func() int { // want MethodValue:`allocs\(method value\)`
	return b.get
}

func (b *box) get() int { return b.n }

func DeferLoop(fs []func()) { // want DeferLoop:`allocs\(defer in loop\)`
	for _, f := range fs {
		defer f()
	}
}

// Transitive: the summary flows through a same-package call; the call
// site becomes the caller's single site.
func Caller() map[string]int { // want Caller:`allocs\(call to a.MakeMap\)`
	return MakeMap()
}

// Static closures over package state and plain arithmetic are free.
func Clean(a, b int) int {
	f := double
	return f(a) + b
}

func double(n int) int { return 2 * n }

// A suppressed site never enters the summary: Allowed has no fact, so
// hot callers of it stay clean (the cold-branch convention).
func Allowed() map[string]int {
	return make(map[string]int) //lint:allow hotpath cold start-up path, runs once
}
