package des

import "time"

// Timer-wheel geometry. Bucket widths are powers of two in nanoseconds
// so placement is a shift, never a division, on the scheduling hot path.
const (
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits
	wheelMask     = wheelSlots - 1

	// g0Bits is the level-0 bucket width: 2^16 ns ≈ 65 µs, fine enough
	// that the near-term heap only ever holds one bucket's worth of
	// events — a few cache lines of nodes, so sifts stay in L1. The
	// level-0 span is 2^24 ns ≈ 16.8 ms.
	g0Bits = 16

	// g1Bits is the level-1 bucket width: 2^24 ns ≈ 16.8 ms, spanning
	// 2^32 ns ≈ 4.29 s — the paper's 3 s RTO retransmission timers park
	// here and take exactly two hops (one cascade, one promotion) on
	// their way to the heap.
	g1Bits = g0Bits + wheelSlotBits

	// g2Bits is the level-2 bucket width: 2^32 ns ≈ 4.29 s, spanning
	// 2^40 ns ≈ 18.3 min. Only timers beyond that reach the overflow
	// list, which is rescanned once per level-2 cascade (every ≈4.29 s
	// of simulated time), so even hour-scale timers cost a handful of
	// rescans.
	g2Bits = g1Bits + wheelSlotBits
)

// wheelNode parks one event in a bucket. Nodes are intrusive
// singly-linked and recycled through a freelist shared by every bucket,
// so steady-state scheduling allocates nothing and needs no per-slot
// warm-up. Order within a bucket is irrelevant: the heap re-establishes
// the (time, seq) total order at promotion.
type wheelNode struct {
	time time.Duration
	seq  uint64
	ev   *event
	next *wheelNode
}

// wheel is a three-level hierarchical timer wheel plus an overflow
// list. Every event due beyond the promotion horizon costs O(1) to park
// and O(1) amortized to promote, keeping the heap no larger than one
// level-0 bucket — only events about to fire ever pay a sift.
type wheel struct {
	// p0 is the next unpromoted level-0 bucket (absolute index,
	// time >> g0Bits — no modulo wrap-around state). p0 << g0Bits is the
	// promotion horizon: every pending event strictly below it is
	// guaranteed to be in the heap, which is the whole determinism
	// argument (DESIGN.md §14).
	p0 int64

	// Resident node counts per container, tombstones included; promote
	// uses them to jump empty spans instead of stepping bucket by
	// bucket.
	count0, count1, count2, countOver int

	level0   [wheelSlots]*wheelNode
	level1   [wheelSlots]*wheelNode
	level2   [wheelSlots]*wheelNode
	overflow *wheelNode

	free *wheelNode
}

// resident returns the number of nodes parked anywhere in the wheel,
// tombstones included.
//
//lint:hotpath
func (w *wheel) resident() int { return w.count0 + w.count1 + w.count2 + w.countOver }

// takeNode pops the node freelist, refilling it with a chunk of nodes
// only while the pool warms up.
//
//lint:hotpath
func (w *wheel) takeNode() *wheelNode {
	if w.free == nil {
		chunk := new([poolChunk]wheelNode) //lint:allow hotpath pool warm-up: one chunk per poolChunk concurrent parked timers, reused forever after
		for i := range len(chunk) - 1 {
			chunk[i].next = &chunk[i+1]
		}
		w.free = &chunk[0]
	}
	n := w.free
	w.free = n.next
	n.next = nil
	return n
}

// putNode wipes a node and pushes it onto the freelist.
//
//lint:hotpath
func (w *wheel) putNode(n *wheelNode) {
	*n = wheelNode{next: w.free}
	w.free = n
}

// place links a node into the finest container that can hold its due
// time: level 0 within 256 buckets of the horizon, level 1 within 256
// level-1 buckets, level 2 within 256 level-2 buckets, the overflow
// list beyond. The caller guarantees the time is at or beyond the
// promotion horizon.
//
//lint:hotpath
func (w *wheel) place(n *wheelNode) {
	b0 := int64(n.time >> g0Bits)
	if b0 < w.p0 {
		panic("des: wheel placement below the promotion horizon")
	}
	if b0-w.p0 < wheelSlots {
		slot := b0 & wheelMask
		n.next = w.level0[slot]
		w.level0[slot] = n
		w.count0++
		return
	}
	b1 := b0 >> wheelSlotBits
	if b1-(w.p0>>wheelSlotBits) < wheelSlots {
		slot := b1 & wheelMask
		n.next = w.level1[slot]
		w.level1[slot] = n
		w.count1++
		return
	}
	b2 := b1 >> wheelSlotBits
	if b2-(w.p0>>(2*wheelSlotBits)) < wheelSlots {
		slot := b2 & wheelMask
		n.next = w.level2[slot]
		w.level2[slot] = n
		w.count2++
		return
	}
	n.next = w.overflow
	w.overflow = n
	w.countOver++
}

// promote advances the promotion horizon by at least one level-0
// bucket, draining due nodes into the heap. Cancelled tombstones are
// dropped here for free — they never pay a heap insertion — and the
// number reclaimed is returned so the simulator's tombstone accounting
// stays exact. The caller guarantees the wheel is non-empty.
//
//lint:hotpath
func (w *wheel) promote(h *heap4) int {
	if w.count0 > 0 {
		dropped := 0
		slot := w.p0 & wheelMask
		for n := w.level0[slot]; n != nil; {
			next := n.next
			w.count0--
			if n.ev.tombstone(n.seq) {
				dropped++
			} else {
				h.push(heapNode{time: n.time, seq: n.seq, ev: n.ev})
			}
			w.putNode(n)
			n = next
		}
		w.level0[slot] = nil
		w.p0++
		return dropped + w.cascades()
	}
	// Level 0 is empty: jump the horizon instead of stepping 65 µs at a
	// time — to just past the heap minimum if that is nearer, else to
	// the next boundary of the shallowest occupied level, cascading the
	// bucket that starts there.
	var target int64
	switch {
	case w.count1 > 0:
		target = (w.p0 | wheelMask) + 1
	case w.count2 > 0 || w.countOver > 0:
		target = (w.p0 | (wheelSlots*wheelSlots - 1)) + 1
	default:
		panic("des: promote on an empty wheel")
	}
	if len(h.a) > 0 {
		if near := int64(h.a[0].time>>g0Bits) + 1; near < target {
			w.p0 = near
			return 0
		}
	}
	w.p0 = target
	return w.cascades()
}

// cascades redistributes whichever level boundaries the horizon just
// crossed: crossing a level-1 boundary (p0 a multiple of 256) spills
// one level-1 bucket downward; crossing a level-2 boundary (p0 a
// multiple of 256²) first spills one level-2 bucket and rescues
// overflow nodes that now fit the level-2 span. Nodes are filtered by
// absolute bucket index, never trusted positionally, so a slot shared
// across wheel revolutions cannot leak a far event into the near
// window. Returns the number of tombstones reclaimed.
//
//lint:hotpath
func (w *wheel) cascades() int {
	if w.p0&wheelMask != 0 {
		return 0
	}
	dropped := 0
	if w.p0&(wheelSlots*wheelSlots-1) == 0 {
		p2 := w.p0 >> (2 * wheelSlotBits)
		if w.countOver > 0 {
			var keep *wheelNode
			for n := w.overflow; n != nil; {
				next := n.next
				switch {
				case n.ev.tombstone(n.seq):
					w.countOver--
					w.putNode(n)
					dropped++
				case int64(n.time>>g2Bits)-p2 < wheelSlots:
					w.countOver--
					w.place(n)
				default:
					n.next = keep
					keep = n
				}
				n = next
			}
			w.overflow = keep
		}
		dropped += w.spill(&w.level2, &w.count2, p2, g2Bits)
	}
	dropped += w.spill(&w.level1, &w.count1, w.p0>>wheelSlotBits, g1Bits)
	return dropped
}

// spill redistributes one bucket of a coarse level into the finer
// levels below it: nodes whose absolute bucket index matches the new
// horizon move down via place, cancelled nodes are reclaimed, and nodes
// from other wheel revolutions sharing the slot stay put. Returns the
// number of tombstones reclaimed.
//
//lint:hotpath
func (w *wheel) spill(level *[wheelSlots]*wheelNode, count *int, p int64, gBits uint) int {
	dropped := 0
	slot := p & wheelMask
	var keep *wheelNode
	for n := level[slot]; n != nil; {
		next := n.next
		if int64(n.time>>gBits) == p {
			*count = *count - 1
			if n.ev.tombstone(n.seq) {
				w.putNode(n)
				dropped++
			} else {
				w.place(n)
			}
		} else {
			n.next = keep
			keep = n
		}
		n = next
	}
	level[slot] = keep
	return dropped
}
