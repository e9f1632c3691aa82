// Package floatbad accumulates floats and merges shards in map
// iteration order. The path is outside the float-equality packages: the
// accumulation and Merge checks hold across the whole module.
package floatbad

// Hist stands in for a mergeable shard accumulator.
type Hist struct{ total float64 }

func (h *Hist) Merge(o *Hist) { h.total += o.total }

// badFloatSum sums floats in iteration order: float addition does not
// associate, so the result differs between identical runs.
func badFloatSum(shards map[string]float64) float64 {
	var sum float64
	for _, v := range shards { // want `float accumulated in map iteration order`
		sum += v
	}
	return sum
}

// badFloatFold is the same accumulation spelled x = x + v.
func badFloatFold(shards map[string]float64) float64 {
	var sum float64
	for _, v := range shards { // want `float accumulated in map iteration order`
		sum = sum + v
	}
	return sum
}

// badFloatProduct scales in iteration order.
func badFloatProduct(weights map[string]float64) float64 {
	prod := 1.0
	for _, w := range weights { // want `float accumulated in map iteration order`
		prod *= w
	}
	return prod
}

// badMerge merges shards in hash order.
func badMerge(hists map[string]*Hist) *Hist {
	out := &Hist{}
	for _, h := range hists { // want `merges via Merge in hash order`
		out.Merge(h)
	}
	return out
}
