package des

import "time"

// heapNode is one pending entry of the near-term scheduler. The (time,
// seq) ordering key is stored inline so sift comparisons walk the
// contiguous backing array instead of chasing *event pointers — the
// cache-friendliness half of the 4-ary layout (DESIGN.md §14).
type heapNode struct {
	time time.Duration
	seq  uint64
	ev   *event
}

// before is the scheduler's total order: earlier time first, FIFO seq
// tie-break for simultaneous events. (time, seq) pairs are unique, so
// the order is strict — the pop sequence is the same for every valid
// heap layout, which is why promotions and sift variants cannot perturb
// determinism.
//
//lint:hotpath
func (n heapNode) before(m heapNode) bool {
	if n.time != m.time {
		return n.time < m.time
	}
	return n.seq < m.seq
}

// heap4 is a 4-ary min-heap ordered by heapNode.before. Four children
// per node halve the tree depth of the binary heap it replaces and keep
// the sibling scan inside one or two cache lines; push/pop sift with
// plain inlined loops — no heap.Interface, no dynamic dispatch, no any
// boxing. Cancellation never touches the heap: cancelled events stay in
// place as tombstones and are dropped when they reach the top
// (Simulator.settle), so no per-node index bookkeeping is needed.
type heap4 struct {
	a []heapNode
}

// push appends n and sifts it up toward the root, moving blocking
// parents down one hole at a time and writing n once at its final slot.
//
//lint:hotpath
func (h *heap4) push(n heapNode) {
	h.a = append(h.a, n) //lint:allow hotpath amortized: the backing array doubles, then is reused for the run's lifetime
	a := h.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !n.before(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = n
}

// pop removes and returns the minimal node. It must not be called on an
// empty heap: the scheduler guarantees settle ran first, and the bounds
// check panics on that impossible state rather than masking it.
//
//lint:hotpath
func (h *heap4) pop() heapNode {
	a := h.a
	top := a[0]
	last := len(a) - 1
	n := a[last]
	a[last] = heapNode{} // release the *event reference for the collector
	h.a = a[:last]
	if last > 0 {
		h.siftDown(n)
	}
	return top
}

// siftDown re-inserts n starting from the root hole, bottom-up: the hole
// first runs the min-child path all the way to a leaf (three comparisons
// per level — the four adjacent children are scanned without comparing
// against n), then n sifts up from the leaf hole. Because n is the old
// last leaf, it almost always belongs near the bottom, so the up phase
// is typically zero or one step — cheaper than paying a fourth
// comparison at every level of the classic top-down descent.
//
//lint:hotpath
func (h *heap4) siftDown(n heapNode) {
	a := h.a
	i := 0
	for {
		c := i<<2 + 1
		if c >= len(a) {
			break
		}
		m := c
		if c+3 < len(a) { // full fan: unrolled, bounds checks hoisted
			if a[c+1].before(a[m]) {
				m = c + 1
			}
			if a[c+2].before(a[m]) {
				m = c + 2
			}
			if a[c+3].before(a[m]) {
				m = c + 3
			}
		} else {
			for j := c + 1; j < len(a); j++ {
				if a[j].before(a[m]) {
					m = j
				}
			}
		}
		a[i] = a[m]
		i = m
	}
	for i > 0 {
		p := (i - 1) >> 2
		if !n.before(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = n
}
