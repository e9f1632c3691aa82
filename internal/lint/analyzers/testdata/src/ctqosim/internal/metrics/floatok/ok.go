// Package floatok sits under the metrics path, where maporder checks
// float equality, and holds the accepted forms: constant sentinels,
// integer accumulation, epsilon comparison and the allow escape hatch.
package floatok

// Unset compares against a constant: an exact stored-value sentinel.
func Unset(v float64) bool { return v == 0 }

// Count accumulates integers: exact in any order.
func Count(shards map[string]int) int {
	total := 0
	for _, n := range shards {
		total += n
	}
	return total
}

// Close is the sanctioned comparison form.
func Close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

// TrimAllowed shows the escape hatch for a deliberate representability
// check.
func TrimAllowed(v float64) bool {
	//lint:allow maporder exact integer-representability check
	return v == float64(int64(v))
}
