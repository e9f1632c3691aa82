// Package allowed pins the cold-branch convention: a site suppressed
// with //lint:allow hotpath never enters its function's summary, so the
// hot caller stays clean without any annotation of its own.
package allowed

//lint:hotpath
func Hot(m map[string]int) int {
	if m == nil {
		m = coldInit()
	}
	return m["k"]
}

func coldInit() map[string]int {
	return make(map[string]int) //lint:allow hotpath cold branch, first call only
}
