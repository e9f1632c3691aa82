// Package floatok holds the accepted float patterns outside the
// float-equality packages: sorted-key accumulation, index-order merges
// and an unchecked comparison.
package floatok

import "sort"

type Hist struct{ total float64 }

func (h *Hist) Merge(o *Hist) { h.total += o.total }

// SumSorted sorts the keys first, so the accumulating range is over a
// slice.
func SumSorted(shards map[string]float64) float64 {
	keys := make([]string, 0, len(shards))
	for k := range shards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += shards[k]
	}
	return sum
}

// MergeOrdered merges shards in index order.
func MergeOrdered(shards []*Hist) *Hist {
	out := &Hist{}
	for _, h := range shards {
		out.Merge(h)
	}
	return out
}

// Equal is outside the packages whose floats must replay, so comparing
// two variables is not checked here.
func Equal(a, b float64) bool { return a == b }
