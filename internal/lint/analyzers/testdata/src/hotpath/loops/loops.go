// Package loops pins the per-iteration costs allocs records inside
// loops: a defer in a loop heap-allocates a frame per iteration that only
// runs at return, and a closure over a named result made in a loop
// allocates per iteration. hotpath reports both, directly and through a
// callee.
package loops

import "sync"

//lint:hotpath
func DeferInLoop(mus []*sync.Mutex) { // want `function DeferInLoop allocates: defer in loop \(loops\.go:`
	for _, mu := range mus {
		mu.Lock()
		defer mu.Unlock()
	}
}

//lint:hotpath
func NamedReturnClosure(xs []int) (total int) { // want `function NamedReturnClosure allocates: closure captures variables`
	for _, x := range xs {
		f := func() {
			total += x
		}
		f()
	}
	return total
}

// CallsDeferLoop is clean itself; the defer sits one call below.
//
//lint:hotpath
func CallsDeferLoop(mus []*sync.Mutex) { // want `function CallsDeferLoop allocates: call to loops\.unlockAll`
	unlockAll(mus)
}

// unlockAll is not annotated: its defer in a loop is only a finding
// where a hot function reaches it.
func unlockAll(mus []*sync.Mutex) {
	for _, mu := range mus {
		mu.Lock()
		defer mu.Unlock()
	}
}

// The usual lock idiom stays legal: the defer is not in a loop.
//
//lint:hotpath
func DeferAtTop(mu *sync.Mutex, xs []int) int {
	mu.Lock()
	defer mu.Unlock()
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// A defer inside a function literal runs per call of the literal, not
// at the outer return: only the capturing closure counts.
//
//lint:hotpath allocs=1 the closure
func DeferInsideLiteral(xs []int) int {
	sum := 0
	for _, x := range xs {
		x := x
		func() {
			defer recoverNop()
			sum += x
		}()
	}
	return sum
}

func recoverNop() { _ = recover() }
