// Package loader parses and type-checks Go packages for the lint driver
// without any dependency beyond the standard library — and without
// network access: imports are resolved from source, mapping module-local
// paths into the repository and everything else into GOROOT (with the
// GOROOT vendor fallback the gc toolchain applies to std imports such as
// golang.org/x/net/dns/dnsmessage).
//
// It is intentionally a fraction of go/packages: one build configuration,
// non-test files only, and types for a whole import closure checked from
// source. That is exactly enough for ctqo-lint, whose analyzers only need
// syntax plus types.Info for the packages under review.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path.
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File
	// Types is the type-checked package object (possibly incomplete if
	// TypeErrors is non-empty).
	Types *types.Package
	// Info is the type-checker's fact tables for Files.
	Info *types.Info
	// TypeErrors collects type-checking problems; linting proceeds on a
	// best-effort basis when it is non-empty.
	TypeErrors []error
}

// Loader resolves, parses and type-checks packages. The zero value is not
// usable; construct with New.
type Loader struct {
	// Fset is shared by every file the loader touches.
	Fset *token.FileSet

	modPath string // module path ("" for GOPATH-style roots, e.g. analysistest)
	modDir  string // directory the module path maps to
	srcRoot string // extra GOPATH-style source root (analysistest fixtures)
	goroot  string

	ctx    build.Context
	cache  map[string]*types.Package // dependency universe, by import path
	loaded map[string]*Package       // Load's results, by import path
	busy   map[string]bool           // cycle guard
}

// New creates a loader whose module modPath lives at modDir. srcRoot, if
// non-empty, is an additional GOPATH-style root consulted before GOROOT
// (used by analysistest to resolve fixture packages by bare path).
func New(modPath, modDir, srcRoot string) *Loader {
	ctx := build.Default
	// Source-level type-checking cannot expand cgo, so resolve every
	// package in its pure-Go configuration.
	ctx.CgoEnabled = false
	return &Loader{
		Fset:    token.NewFileSet(),
		modPath: modPath,
		modDir:  modDir,
		srcRoot: srcRoot,
		goroot:  ctx.GOROOT,
		ctx:     ctx,
		cache:   make(map[string]*types.Package),
		loaded:  make(map[string]*Package),
		busy:    make(map[string]bool),
	}
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (modDir, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// dir resolves an import path to a source directory.
func (l *Loader) dir(path string) (string, error) {
	if d := l.localDir(path); d != "" {
		return d, nil
	}
	for _, d := range []string{
		filepath.Join(l.goroot, "src", filepath.FromSlash(path)),
		// GOROOT vendoring: std packages import x/ repos by their
		// canonical path; the sources live under src/vendor.
		filepath.Join(l.goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d, nil
		}
	}
	return "", fmt.Errorf("cannot resolve import %q", path)
}

// localDir resolves an import path inside the module or the extra source
// root, or returns "" when the path lives elsewhere (GOROOT). "Local"
// packages are the ones a lint run analyzes as subjects — and therefore
// the only ones that can carry analyzer facts.
func (l *Loader) localDir(path string) string {
	if l.modPath != "" {
		if path == l.modPath {
			return l.modDir
		}
		if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
			return filepath.Join(l.modDir, filepath.FromSlash(rest))
		}
	}
	if l.srcRoot != "" {
		d := filepath.Join(l.srcRoot, filepath.FromSlash(path))
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d
		}
	}
	return ""
}

// Closure expands paths to their dependency closure restricted to local
// packages (module or srcRoot — GOROOT imports are resolved by the type
// checker but never analyzed) and returns it in dependency order: every
// package appears after all of its in-closure imports. The order is
// deterministic — imports are visited sorted — and is the order a facts-
// propagating driver must Load and analyze packages in, so that facts
// exported while analyzing an import are in place before its dependents
// run, and so that each subject's type-checked form is the one dependents
// import (object identity is what keys the fact store).
func (l *Loader) Closure(paths []string) ([]string, error) {
	const visiting, done = 1, 2
	state := make(map[string]int)
	var out []string
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle through %q", path)
		}
		state[path] = visiting
		if dir := l.localDir(path); dir != "" {
			bp, err := l.ctx.ImportDir(dir, 0)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			imports := append([]string(nil), bp.Imports...)
			sort.Strings(imports)
			for _, imp := range imports {
				if imp == "C" || imp == "unsafe" || l.localDir(imp) == "" {
					continue
				}
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = done
		out = append(out, path)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseDir parses the build-selected non-test Go files of dir.
func (l *Loader) parseDir(dir string, mode parser.Mode) ([]*ast.File, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer for dependency resolution.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom. Dependencies are checked from
// source without comments or fact tables, and memoized for the lifetime
// of the loader so a whole-repo lint pays for the stdlib closure once.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	dir, err := l.dir(path)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	conf := l.typesConfig(nil)
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil && pkg == nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// typesConfig builds the shared type-checker configuration. When sink is
// non-nil, type errors are appended to it and checking continues.
func (l *Loader) typesConfig(sink *[]error) types.Config {
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", l.ctx.GOARCH),
	}
	if sink != nil {
		conf.Error = func(err error) { *sink = append(*sink, err) }
	} else {
		// Dependencies are allowed minor errors (e.g. a build-tag
		// configuration go/build picked that gc would not); keep the
		// first error behaviour but do not abort the whole run.
		conf.Error = func(error) {}
	}
	return conf
}

// Load parses and type-checks the package at the given import path with
// full syntax (comments) and fact tables — the form analyzers run on.
// Loading a path again returns the first load's Package, so its objects
// stay the ones facts were attached to.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	dir, err := l.dir(path)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Info: info}
	conf := l.typesConfig(&pkg.TypeErrors)
	pkg.Types, _ = conf.Check(path, l.Fset, files, info)
	// Register the fully loaded package as the canonical import, so
	// packages loaded after this one resolve its objects to the very
	// instances analyzers attached facts to (and so each package in a
	// Closure-ordered run is type-checked exactly once).
	if pkg.Types != nil {
		l.cache[path] = pkg.Types
	}
	l.loaded[path] = pkg
	return pkg, nil
}

// skipDir reports whether a directory basename is never part of the
// lintable package tree.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" || name == "out" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// Expand turns command-line patterns into a sorted list of import paths.
// Supported forms: "./...", "./dir/...", "./dir", and bare import paths
// (with or without a trailing "/..." wildcard) inside the module.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		rel, recursive := pat, false
		if rest, ok := strings.CutSuffix(rel, "/..."); ok {
			rel, recursive = rest, true
		} else if rel == "..." {
			rel, recursive = ".", true
		}
		// Normalize an import-path pattern into a module-relative one.
		if l.modPath != "" {
			if rel == l.modPath {
				rel = "."
			} else if rest, ok := strings.CutPrefix(rel, l.modPath+"/"); ok {
				rel = "./" + rest
			}
		}
		rel = strings.TrimPrefix(rel, "./")
		if rel == "" {
			rel = "."
		}
		base := filepath.Join(l.modDir, filepath.FromSlash(rel))
		if !recursive {
			if l.hasGoFiles(base) {
				add(l.importPath(rel))
			} else {
				return nil, fmt.Errorf("no Go files in %s", pat)
			}
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if p != base && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			if l.hasGoFiles(p) {
				relp, err := filepath.Rel(l.modDir, p)
				if err != nil {
					return err
				}
				add(l.importPath(filepath.ToSlash(relp)))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// hasGoFiles reports whether dir holds at least one buildable non-test Go
// file.
func (l *Loader) hasGoFiles(dir string) bool {
	bp, err := l.ctx.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}

// importPath maps a module-relative directory to its import path.
func (l *Loader) importPath(rel string) string {
	rel = strings.TrimPrefix(path.Clean(rel), "./")
	if rel == "." || rel == "" {
		return l.modPath
	}
	if l.modPath == "" {
		return rel
	}
	return l.modPath + "/" + rel
}
