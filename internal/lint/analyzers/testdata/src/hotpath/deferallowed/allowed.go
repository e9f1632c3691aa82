// Package deferallowed shows the escape hatch for a defer in a loop: a
// //lint:allow hotpath site never enters its function's summary, so the
// hot function stays clean.
package deferallowed

import "sync"

// DrainOnce defers in a loop on a path that runs once at shutdown.
//
//lint:hotpath
func DrainOnce(mus []*sync.Mutex) {
	for _, mu := range mus {
		mu.Lock()
		defer mu.Unlock() //lint:allow hotpath bounded shutdown sweep, not steady-state
	}
}
