// Package mutual exercises the rendered chain through mutual recursion:
// MutA's first site calls MutB, which only calls MutA back, so the chain
// from a //lint:pure caller must back out of MutB and end at MutA's
// package-variable write.
package mutual

var count int

//lint:pure
func Root(n int) {
	MutA(n) // want `//lint:pure function Root reaches impure mutual.MutA: writes package variable count \(mutual.go:\d+, 1 call deep\)`
}

func MutA(n int) {
	if n > 0 {
		MutB(n - 1)
	}
	count++
}

func MutB(n int) {
	MutA(n)
}
