package des

import (
	"math"
	"math/bits"
	"time"
)

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
	fn   func()
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

	// Resident node counts per container; promote uses them to jump
	// empty spans instead of stepping bucket by bucket.
	count0, count1, count2, countOver int

	// occ0 is level 0's occupancy map, one bit per slot: place sets a
	// slot's bit and drain clears it, so promote finds the next occupied
	// bucket without stepping through empty ones.
	occ0 [wheelSlots / 64]uint64

	level0   [wheelSlots]*wheelNode
	level1   [wheelSlots]*wheelNode
	level2   [wheelSlots]*wheelNode
	overflow *wheelNode

	free *wheelNode
}

// resident returns the number of nodes parked anywhere in the wheel.
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

// putNode wipes a node and pushes it onto the freelist, so the pool
// pins no callback.
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
		w.occ0[slot>>6] |= 1 << (slot & 63)
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

// promote moves the wheel's next bucket into the heap. near is the
// bucket of the nearest event outside the wheel — the heap top or the
// earliest armed alarm, math.MaxInt64 when there is none — and the
// caller guarantees it is not below the horizon and that the wheel is
// non-empty, so the bucket at the horizon may hold the next event.
//
// promote drains the bucket at the horizon if it is occupied. Then it
// advances the horizon, step by step, to the nearer of two points: the
// next occupied level-0 bucket, found in the occupancy map, and the
// next boundary of the shallowest occupied coarse level — level 1's, or
// level 2's when only level 2 and the overflow list hold nodes —
// cascading there. It stops on an occupied bucket, on an empty wheel,
// or once the horizon is past near (after a drain, past the drained
// bucket). Every step is at least one bucket, and none skips an
// occupied bucket or a boundary with nodes to spill. So the horizon
// rests on the wheel's next bucket, and the events outside the wheel
// that come before it fire without another promotion; the near bound
// keeps a sparse wheel's horizon from running far ahead of the clock.
//
//lint:hotpath
func (w *wheel) promote(h *heap4, near int64) {
	if w.resident() == 0 {
		panic("des: promote on an empty wheel")
	}
	if w.occupied(w.p0) {
		w.drain(h, w.p0)
		w.p0++
		w.cascades()
		near = max(near, w.p0) // a drain advances to the wheel's next bucket at least
	}
	for w.p0 <= near && w.resident() > 0 && !w.occupied(w.p0) {
		target := int64(math.MaxInt64)
		switch {
		case w.count1 > 0:
			target = (w.p0 | wheelMask) + 1
		case w.count2 > 0 || w.countOver > 0:
			target = (w.p0 | (wheelSlots*wheelSlots - 1)) + 1
		}
		if w.count0 > 0 {
			target = min(target, w.p0+w.nextOccupied())
		}
		w.p0 = target
		w.cascades()
	}
}

// occupied reports whether level-0 bucket b, at most 255 buckets past
// the horizon, holds a node.
//
//lint:hotpath
func (w *wheel) occupied(b int64) bool {
	slot := b & wheelMask
	return w.occ0[slot>>6]&(1<<(slot&63)) != 0
}

// nextOccupied returns how many buckets past the horizon the next
// occupied level-0 bucket lies, searching the occupancy map from the
// horizon's slot and wrapping around. Every level-0 node is due within
// 256 buckets of the horizon, so the distance names one absolute
// bucket. The caller guarantees level 0 holds a node; a map without a
// set bit then is an impossible state and panics.
//
//lint:hotpath
func (w *wheel) nextOccupied() int64 {
	from := int(w.p0 & wheelMask)
	word := from >> 6
	if m := w.occ0[word] >> (from & 63); m != 0 {
		return int64(bits.TrailingZeros64(m))
	}
	for i := 1; i <= len(w.occ0); i++ {
		k := (word + i) % len(w.occ0)
		if m := w.occ0[k]; m != 0 {
			slot := k<<6 + bits.TrailingZeros64(m)
			return int64((slot - from) & wheelMask)
		}
	}
	panic("des: level-0 count with no occupied slot")
}

// drain moves level-0 bucket b's nodes into the heap and clears the
// slot's occupancy bit.
//
//lint:hotpath
func (w *wheel) drain(h *heap4, b int64) {
	slot := b & wheelMask
	for n := w.level0[slot]; n != nil; {
		next := n.next
		w.count0--
		h.push(heapNode{time: n.time, seq: n.seq, fn: n.fn})
		w.putNode(n)
		n = next
	}
	w.level0[slot] = nil
	w.occ0[slot>>6] &^= 1 << (slot & 63)
}

// cascades redistributes whichever level boundaries the horizon just
// crossed: crossing a level-1 boundary (p0 a multiple of 256) spills
// one level-1 bucket downward; crossing a level-2 boundary (p0 a
// multiple of 256²) first spills one level-2 bucket and rescues
// overflow nodes that now fit the level-2 span. Nodes are filtered by
// absolute bucket index, never trusted positionally, so a slot shared
// across wheel revolutions cannot leak a far event into the near
// window.
//
//lint:hotpath
func (w *wheel) cascades() {
	if w.p0&wheelMask != 0 {
		return
	}
	if w.p0&(wheelSlots*wheelSlots-1) == 0 {
		p2 := w.p0 >> (2 * wheelSlotBits)
		if w.countOver > 0 {
			var keep *wheelNode
			for n := w.overflow; n != nil; {
				next := n.next
				if int64(n.time>>g2Bits)-p2 < wheelSlots {
					w.countOver--
					w.place(n)
				} else {
					n.next = keep
					keep = n
				}
				n = next
			}
			w.overflow = keep
		}
		w.spill(&w.level2, &w.count2, p2, g2Bits)
	}
	w.spill(&w.level1, &w.count1, w.p0>>wheelSlotBits, g1Bits)
}

// spill redistributes one bucket of a coarse level into the finer
// levels below it: nodes whose absolute bucket index matches the new
// horizon move down via place, and nodes from later wheel revolutions
// sharing the slot stay put. A node from an earlier revolution missed
// its spill, when the horizon crossed a boundary without cascading; it
// would never fire, so it panics.
//
//lint:hotpath
func (w *wheel) spill(level *[wheelSlots]*wheelNode, count *int, p int64, gBits uint) {
	slot := p & wheelMask
	var keep *wheelNode
	for n := level[slot]; n != nil; {
		next := n.next
		switch b := int64(n.time >> gBits); {
		case b == p:
			*count = *count - 1
			w.place(n)
		case b < p:
			panic("des: wheel node stranded behind the horizon")
		default:
			n.next = keep
			keep = n
		}
		n = next
	}
	level[slot] = keep
}
