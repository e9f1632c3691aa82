// Package metrics stands in for the repo's metrics package: the import
// path puts it where maporder checks float equality.
package metrics

func Trim(v float64) bool {
	return v == float64(int64(v)) // want `== between non-constant floats is rounding-sensitive`
}

func Drifted(a, b float64) bool {
	return a != b // want `!= between non-constant floats is rounding-sensitive`
}
