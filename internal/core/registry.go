package core

import (
	"io/fs"
	"strings"
)

// Scenarios returns the named scenario registry shared by the CLI tools,
// the figures command, the benchmarks and the tests: every paper figure
// plus the extension scenarios, compiled from the embedded scenario files
// (one file per name, keyed by its basename). The files are the only
// definition of these configurations; TestGoldenScenarios pins each
// file's defaulted effective config and its run. A name the registry
// does not hold has no entry, so callers check the lookup.
func Scenarios() map[string]Config {
	out := make(map[string]Config)
	entries, err := fs.ReadDir(scenarioFS, "scenarios")
	if err != nil {
		panic("embedded scenarios: " + err.Error())
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".json")
		out[name] = mustScenario("scenarios/" + e.Name())
	}
	return out
}
