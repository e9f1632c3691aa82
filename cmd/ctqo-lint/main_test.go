package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctqosim/internal/lint"
)

// writeModule lays out a throwaway module with one package containing a
// seededrand violation and a wallclock call that is legal there (the
// module is not under ctqosim's sim-time packages).
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmplint\n\ngo 1.22\n",
		"a.go": `package a

import (
	"math/rand"
	"time"
)

func Jitter() time.Duration {
	return time.Duration(rand.Intn(100)) * time.Millisecond
}

func Now() time.Time { return time.Now() }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// inDir runs f with the working directory switched to dir. os.Chdir
// rather than t.Chdir keeps the test independent of the go directive in
// the throwaway go.mod.
func inDir(t *testing.T, dir string, f func()) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	}()
	f()
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1024)
		tmp := make([]byte, 512)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	f()
	w.Close()
	out := <-done
	r.Close()
	return out
}

func TestRunReportsFindingsAsJSON(t *testing.T) {
	dir := writeModule(t)
	var code int
	out := captureStdout(t, func() {
		inDir(t, dir, func() {
			code = run([]string{"-json", "./..."})
		})
	})
	if code != 1 {
		t.Fatalf("run() = %d, want 1 (findings present); output:\n%s", code, out)
	}
	var findings []lint.Finding
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("output is not a JSON findings array: %v\n%s", err, out)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly 1 (the rand.Intn call):\n%s", len(findings), out)
	}
	f := findings[0]
	if f.Analyzer != "seededrand" {
		t.Errorf("finding analyzer = %q, want seededrand", f.Analyzer)
	}
	if f.File != "a.go" {
		t.Errorf("finding file = %q, want a.go (relative to the module)", f.File)
	}
	if f.Line == 0 || f.Col == 0 {
		t.Errorf("finding position %d:%d not set", f.Line, f.Col)
	}
}

func TestRunAnalyzerDisableFlag(t *testing.T) {
	dir := writeModule(t)
	var code int
	out := captureStdout(t, func() {
		inDir(t, dir, func() {
			code = run([]string{"-seededrand=false", "./..."})
		})
	})
	if code != 0 {
		t.Fatalf("run(-seededrand=false) = %d, want 0; output:\n%s", code, out)
	}
}

func TestRunBadFlag(t *testing.T) {
	dir := writeModule(t)
	var code int
	inDir(t, dir, func() {
		code = run([]string{"-definitely-not-a-flag"})
	})
	if code != 2 {
		t.Fatalf("run(bad flag) = %d, want 2", code)
	}
}

// TestRunHelpExitsZero pins -h: the flag set prints the usage and the
// command exits 0, not with the usage-error status.
func TestRunHelpExitsZero(t *testing.T) {
	if code := run([]string{"-h"}); code != 0 {
		t.Fatalf("run(-h) = %d, want 0", code)
	}
}

func TestRunFindingsExitFlag(t *testing.T) {
	dir := writeModule(t)
	for _, tc := range []struct {
		flag string
		want int
	}{
		{"-findings-exit=3", 3},
		{"-findings-exit=0", 0},
	} {
		var code int
		out := captureStdout(t, func() {
			inDir(t, dir, func() {
				code = run([]string{tc.flag, "./..."})
			})
		})
		if code != tc.want {
			t.Errorf("run(%s) = %d, want %d; output:\n%s", tc.flag, code, tc.want, out)
		}
		if out == "" {
			t.Errorf("run(%s) reported nothing; findings must still be printed", tc.flag)
		}
	}
}

func TestRunBenchout(t *testing.T) {
	dir := writeModule(t)
	benchFile := filepath.Join(t.TempDir(), "bench.json")
	captureStdout(t, func() {
		inDir(t, dir, func() {
			run([]string{"-benchout", benchFile, "./..."})
		})
	})
	data, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatalf("benchout file not written: %v", err)
	}
	var entries map[string]map[string]any
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("benchout is not a keyed JSON object: %v\n%s", err, data)
	}
	rec, ok := entries["lint"]
	if !ok {
		t.Fatalf("benchout has no \"lint\" key:\n%s", data)
	}
	for _, field := range []string{"benchmark", "packages", "files", "analyzers", "findings", "cpus", "seconds_total"} {
		if _, ok := rec[field]; !ok {
			t.Errorf("lint record missing %q:\n%s", field, data)
		}
	}
	if got := rec["findings"]; got != float64(1) {
		t.Errorf("lint record findings = %v, want 1", got)
	}
}

// TestRunRepoIsClean pins the audited state of this repository: the
// linter — all six analyzers, including the facts-propagating effects
// and hotpath summaries — over the real module must exit 0. A
// regression that reintroduces wall-clock reads, unseeded randomness, a
// shared-Config write, an impure Tweak reach or a map-order float sum
// fails here, not just in CI.
//
// TestRepoCleanHotpath below re-checks with only hotpath enabled, so a
// hot-path regression is attributed to the right contract even when a
// determinism analyzer also fires.
func TestRunRepoIsClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd)) // cmd/ctqo-lint -> repo root
	var code int
	out := captureStdout(t, func() {
		inDir(t, root, func() {
			code = run([]string{"./..."})
		})
	})
	if code != 0 {
		t.Fatalf("ctqo-lint over the repo = %d, want 0; findings:\n%s", code, out)
	}
}

// TestRepoCleanHotpath pins the hot-path allocation contract over the
// real module with only hotpath enabled: every
// //lint:hotpath annotation in the DES kernel, the simnet delivery
// path, the HDR record path and the disabled-tracer path must verify
// allocation-free (or within budget) statically. The dynamic half of
// the contract is hotpath_contract_test.go at the repo root.
func TestRepoCleanHotpath(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd)) // cmd/ctqo-lint -> repo root
	args := []string{
		"-wallclock=false", "-seededrand=false", "-maporder=false",
		"-exhaustive=false", "-effects=false",
		"./...",
	}
	var code int
	out := captureStdout(t, func() {
		inDir(t, root, func() {
			code = run(args)
		})
	})
	if code != 0 {
		t.Fatalf("hot-path lint over the repo = %d, want 0; findings:\n%s", code, out)
	}
}

// TestRunJSONChain pins the CLI end of the chain contract: a hotpath
// finding whose allocation happens in a callee carries the rendered
// call chain in the -json output.
func TestRunJSONChain(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmphot\n\ngo 1.22\n",
		"a.go": `package a

//lint:hotpath
func Hot() map[string]int { return helper() }

func helper() map[string]int { return make(map[string]int) }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var code int
	out := captureStdout(t, func() {
		inDir(t, dir, func() {
			code = run([]string{"-json", "./..."})
		})
	})
	if code != 1 {
		t.Fatalf("run() = %d, want 1 (hotpath finding); output:\n%s", code, out)
	}
	var findings []lint.Finding
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("output is not a JSON findings array: %v\n%s", err, out)
	}
	if len(findings) != 1 || findings[0].Analyzer != "hotpath" {
		t.Fatalf("findings = %+v, want exactly one hotpath finding", findings)
	}
	if len(findings[0].Chain) != 1 {
		t.Fatalf("finding chain = %q, want one entry (the helper's make)", findings[0].Chain)
	}
}

// TestRunPurityJSONChain pins the CLI end of the purity contract: a
// //lint:pure function reaching a shared write three calls down carries
// the full rendered chain in the -json output of the effects analyzer.
func TestRunPurityJSONChain(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmppure\n\ngo 1.22\n",
		"a.go": `package a

var hits int

//lint:pure
func Root() { a1() }

func a1() { a2() }
func a2() { a3() }
func a3() { hits++ }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var code int
	out := captureStdout(t, func() {
		inDir(t, dir, func() {
			code = run([]string{"-json", "./..."})
		})
	})
	if code != 1 {
		t.Fatalf("run() = %d, want 1 (effects finding); output:\n%s", code, out)
	}
	var findings []lint.Finding
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("output is not a JSON findings array: %v\n%s", err, out)
	}
	if len(findings) != 1 || findings[0].Analyzer != "effects" {
		t.Fatalf("findings = %+v, want exactly one effects finding", findings)
	}
	f := findings[0]
	if !strings.Contains(f.Message, "3 calls deep") {
		t.Errorf("message = %q, want it to report the depth (3 calls deep)", f.Message)
	}
	wantChain := []string{
		"//lint:pure function Root: calls tmppure.a1 (a.go:",
		"tmppure.a1: calls tmppure.a2 (a.go:",
		"tmppure.a2: calls tmppure.a3 (a.go:",
		"tmppure.a3: writes package variable hits (a.go:",
	}
	if len(f.Chain) != len(wantChain) {
		t.Fatalf("chain = %q, want %d entries", f.Chain, len(wantChain))
	}
	for i, want := range wantChain {
		if !strings.HasPrefix(f.Chain[i], want) {
			t.Errorf("chain[%d] = %q, want prefix %q", i, f.Chain[i], want)
		}
	}
}

// TestRunUnusedAllow pins the stale-suppression audit: -unused-allow
// reports directives that suppress nothing or name an unknown analyzer,
// skips directives whose analyzer was disabled for the run, and leaves
// working directives alone. Without the flag the audit never runs.
func TestRunUnusedAllow(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpallow\n\ngo 1.22\n",
		"a.go": `package a

import (
	"math/rand"
	"time"
)

func Jitter() time.Duration {
	//lint:allow seededrand jitter outside the replayed path
	return time.Duration(rand.Intn(100)) * time.Millisecond
}

func Stale() int {
	//lint:allow maporder nothing here iterates a map
	return 1
}

func Typo() int {
	//lint:allow nosuchanalyzer typo
	return 2
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	decode := func(out string) []lint.Finding {
		t.Helper()
		var findings []lint.Finding
		if err := json.Unmarshal([]byte(out), &findings); err != nil {
			t.Fatalf("output is not a JSON findings array: %v\n%s", err, out)
		}
		return findings
	}

	// Without the flag: the working allow suppresses the seededrand
	// finding and nothing else is reported.
	var code int
	out := captureStdout(t, func() {
		inDir(t, dir, func() { code = run([]string{"-json", "./..."}) })
	})
	if code != 0 || len(decode(out)) != 0 {
		t.Fatalf("baseline run = %d with findings %s, want clean", code, out)
	}

	// With the flag: the stale maporder directive and the unknown name
	// are reported; the working seededrand directive is not.
	out = captureStdout(t, func() {
		inDir(t, dir, func() { code = run([]string{"-unused-allow", "-json", "./..."}) })
	})
	if code != 1 {
		t.Fatalf("run(-unused-allow) = %d, want 1; output:\n%s", code, out)
	}
	findings := decode(out)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (stale + unknown):\n%s", len(findings), out)
	}
	for _, f := range findings {
		if f.Analyzer != "unused-allow" {
			t.Errorf("finding analyzer = %q, want unused-allow", f.Analyzer)
		}
		if strings.Contains(f.Message, "seededrand") {
			t.Errorf("working directive reported stale: %s", f.Message)
		}
	}
	if !strings.Contains(out, "unused //lint:allow maporder") {
		t.Errorf("stale maporder directive not reported:\n%s", out)
	}
	if !strings.Contains(out, "//lint:allow nosuchanalyzer: unknown analyzer") {
		t.Errorf("unknown analyzer name not reported:\n%s", out)
	}

	// Disabling seededrand leaves its (now inert) directive unreported:
	// it may be load-bearing under the full suite.
	out = captureStdout(t, func() {
		inDir(t, dir, func() {
			code = run([]string{"-seededrand=false", "-unused-allow", "-json", "./..."})
		})
	})
	if code != 1 {
		t.Fatalf("run(-seededrand=false -unused-allow) = %d, want 1; output:\n%s", code, out)
	}
	if got := decode(out); len(got) != 2 {
		t.Fatalf("got %d findings with seededrand disabled, want 2:\n%s", len(got), out)
	}
	if strings.Contains(out, "seededrand") {
		t.Errorf("directive for a disabled analyzer must be skipped, not reported:\n%s", out)
	}
}
