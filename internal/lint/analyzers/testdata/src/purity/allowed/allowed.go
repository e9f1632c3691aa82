// Package allowed exercises the purity analyzer's legal patterns: seeded
// randomness, string formatting, writes through the root's own
// parameters, and the //lint:allow escape hatch (consumed at
// fact-construction time, so the allowance covers transitive reaches
// too).
package allowed

import (
	"fmt"
	"math/rand"
)

type Spec struct{ Web int }

//lint:pure
func Gen(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	return fmt.Sprintf("web=%d", r.Intn(10))
}

//lint:pure
func SetParam(s *Spec) {
	s.Web = 2 // mutating the caller-supplied spec is the closure's job
}

var debugHits int

//lint:pure
func Counted(s *Spec) {
	//lint:allow effects debug-only counter, excluded from replay identity
	debugHits++
	SetParam(s)
}

//lint:pure
func Chained(s *Spec) {
	Counted(s) // the allow strips the effect, so reaching it is clean too
}
