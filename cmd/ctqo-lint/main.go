// Command ctqo-lint runs the repo's six analyzers — the determinism
// family (wallclock, seededrand, maporder, exhaustive, effects) and the
// hot-path allocation contract (hotpath) — over the given packages. It
// is the mechanical enforcement of DESIGN.md's determinism contract
// (§§1–11), whose effects check also covers the //lint:pure and
// //lint:nocapturewrite roots, and of the hot-path allocation contract
// (§12), and runs in CI next to go vet.
//
// Usage:
//
//	ctqo-lint [flags] [packages]
//
//	ctqo-lint ./...                  # whole repo (the default)
//	ctqo-lint -json ./internal/...   # machine-readable diagnostics
//	ctqo-lint -maporder=false ./...  # disable one analyzer
//	ctqo-lint -findings-exit=0 ./... # report findings but exit 0
//
// Each analyzer has a boolean flag named after it (default true). A
// finding can be silenced in the source with a "//lint:allow <analyzer>
// <reason>" comment on the flagged line or the line above it.
//
// The requested packages' whole local dependency closure is analyzed, in
// dependency order, so facts-based analyzers (exhaustive, hotpath,
// effects) see the summaries their dependencies exported; findings are
// reported only for the requested packages. With -json, hotpath and
// effects findings carry a "chain" array tracing the call path from the
// annotated function down to the allocating construct or the effect.
//
// -unused-allow audits the suppression comments themselves: an allow
// directive in a requested package that names an unknown analyzer, or
// that suppresses nothing under the analyzers that ran, is reported as a
// finding of the synthetic "unused-allow" analyzer.
//
// -benchout FILE records the run's wall clock (load + analysis, all
// analyzers) under the "lint" key of the keyed benchmark file FILE, in
// the BENCH_parallel.json format.
//
// Exit status: 0 when clean or for -h, the -findings-exit value (default
// 1) when any diagnostic was reported, 2 on usage or load errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ctqosim/internal/benchrec"
	"ctqosim/internal/lint"
	"ctqosim/internal/lint/analysis"
	"ctqosim/internal/lint/analyzers"
	"ctqosim/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ctqo-lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	verbose := fs.Bool("v", false, "report packages as they are checked and any type errors")
	findingsExit := fs.Int("findings-exit", 1, "exit status when findings are reported (0 makes findings non-fatal)")
	benchOut := fs.String("benchout", "", "record load+analysis wall clock under the \"lint\" key of this keyed benchmark `file`")
	unusedAllow := fs.Bool("unused-allow", false, "report //lint:allow directives that suppress nothing (stale) or name an unknown analyzer")
	all := analyzers.All()
	enabled := make(map[string]*bool, len(all))
	for _, a := range all {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h: the flag set has printed the usage
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var active []*analysis.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctqo-lint:", err)
		return 2
	}
	modDir, modPath, err := loader.FindModule(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctqo-lint:", err)
		return 2
	}
	l := loader.New(modPath, modDir, "")
	paths, err := l.Expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctqo-lint:", err)
		return 2
	}

	start := time.Now()
	order, err := l.Closure(paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctqo-lint:", err)
		return 2
	}
	requested := make(map[string]bool, len(paths))
	for _, path := range paths {
		requested[path] = true
	}
	facts := analysis.NewStore()
	var audit *lint.AllowAudit
	if *unusedAllow {
		audit = lint.NewAllowAudit(active, all)
	}
	files := 0
	var findings []lint.Finding
	for _, path := range order {
		pkg, err := l.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctqo-lint: load %s: %v\n", path, err)
			return 2
		}
		files += len(pkg.Files)
		if *verbose {
			fmt.Fprintf(os.Stderr, "checking %s (%d files)\n", path, len(pkg.Files))
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "  type error: %v\n", terr)
			}
		}
		pkgAudit := audit
		if !requested[path] {
			pkgAudit = nil
		}
		fs, err := lint.RunPackage(l, pkg, active, modDir, facts, pkgAudit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ctqo-lint:", err)
			return 2
		}
		if requested[path] {
			findings = append(findings, fs...)
		}
	}
	if audit != nil {
		findings = append(findings, audit.Findings(modDir)...)
	}
	lint.Sort(findings)
	elapsed := time.Since(start)

	if *benchOut != "" {
		record := map[string]any{
			"benchmark":     "lint",
			"packages":      len(order),
			"files":         files,
			"analyzers":     len(active),
			"findings":      len(findings),
			"cpus":          runtime.NumCPU(),
			"seconds_total": elapsed.Seconds(),
		}
		if err := benchrec.Update(*benchOut, "lint", record); err != nil {
			fmt.Fprintln(os.Stderr, "ctqo-lint:", err)
			return 2
		}
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "ctqo-lint:", err)
			return 2
		}
	} else if err := lint.WriteText(os.Stdout, findings); err != nil {
		fmt.Fprintln(os.Stderr, "ctqo-lint:", err)
		return 2
	}
	if len(findings) > 0 {
		return *findingsExit
	}
	return 0
}
