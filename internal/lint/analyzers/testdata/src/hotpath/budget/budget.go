// Package budget exercises allocs=N budgets and malformed directives.
package budget

// Two sites under a budget of two: within contract, no finding.
//
//lint:hotpath allocs=2 amortized ring growth
func Within() ([]int, map[string]int) {
	s := make([]int, 4)
	m := make(map[string]int)
	return s, m
}

// Two sites over a budget of one: every site is reported, tagged with
// the exceeded budget so the reader sees the arithmetic.
//
//lint:hotpath allocs=1
func Over() ([]int, map[string]int) { // want `function Over allocates: make slice \(budget\.go:\d+\) \[budget allocs=1 exceeded: 2 sites\]` `function Over allocates: make map \(budget\.go:\d+\) \[budget allocs=1 exceeded: 2 sites\]`
	s := make([]int, 4)
	m := make(map[string]int)
	return s, m
}

// Six sites over a budget of four: the budget counts every site, though
// only the first four are reported.
//
//lint:hotpath allocs=4
func OverCap() { // want `function OverCap allocates: make slice \(budget\.go:\d+\) \[budget allocs=4 exceeded: 6 sites\]` `function OverCap allocates: make map \(budget\.go:\d+\) \[budget allocs=4 exceeded: 6 sites\]` `function OverCap allocates: make chan \(budget\.go:\d+\) \[budget allocs=4 exceeded: 6 sites\]` `function OverCap allocates: make slice \(budget\.go:\d+\) \[budget allocs=4 exceeded: 6 sites\]`
	a := make([]int, 1)
	b := make(map[int]int)
	c := make(chan int)
	d := make([]byte, 1)
	e := make([]string, 1)
	f := make(map[string]int)
	_, _, _, _, _, _ = a, b, c, d, e, f
}

//lint:hotpath allocs=x // want `budget must be a non-negative integer`
func BadBudget() {}

//lint:hotpath allocs=-1 // want `budget must be a non-negative integer`
func NegativeBudget() {}

//lint:hotpath frames=0 // want `unknown //lint:hotpath key "frames"`
func BadKey() {}
