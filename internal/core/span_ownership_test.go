package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestSpansOnEveryScenarioFile runs every embedded scenario file — the
// registry, the Fig. 12 templates and the matrix cells — with spans on.
// Tracer.Finish takes each request's trace and reopens the ones its
// sampler lets go, and recording on a finished trace panics, so a server,
// transport or generator that touches a trace after its request ended
// fails here, naming the file.
func TestSpansOnEveryScenarioFile(t *testing.T) {
	var paths []string
	for _, key := range goldenFiles(t) {
		if !strings.Contains(key, "#") {
			paths = append(paths, key)
		}
	}
	err := NewRunner(0).Do(len(paths), func(slot int) (err error) {
		path := paths[slot]
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%s: %v", path, r)
			}
		}()
		cfg := mustScenario(path)
		cfg.Seed = 1
		cfg.Duration = 15 * time.Second
		cfg.Spans = true
		if strings.HasPrefix(path, "scenarios/templates/") {
			cfg.Clients = goldenConcurrency
		}
		res, err := New(cfg).Run()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if res.Spans.Finished() == 0 {
			return fmt.Errorf("%s: no trace finished", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
