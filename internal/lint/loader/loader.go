// Package loader type-checks Go packages from source using only the
// standard library. It is the package-loading layer beneath the hyperqlint
// analyzer suite: the repo carries no external dependencies, so the usual
// golang.org/x/tools/go/packages loader is replaced by a small one driven by
// `go list -json` for build-system facts (file selection, import
// resolution, the stdlib vendor ImportMap) and go/parser + go/types for
// everything else.
//
// Two loading modes exist:
//
//   - Load(patterns...) resolves patterns through the go command and
//     type-checks the full dependency graph from source (the standard
//     library included — about two seconds for this repo). Packages with
//     test files additionally get a test-augmented unit (GoFiles +
//     TestGoFiles) and, when present, an external test unit (XTestGoFiles),
//     so analyzers see test code too.
//
//   - A Loader with FixtureRoot set resolves import paths below that
//     directory first, shadowing even standard-library paths. Analyzer
//     fixtures use this to supply tiny hermetic stubs for "sync", "context"
//     or "odbc" instead of type-checking the real thing.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked unit.
type Package struct {
	// PkgPath is the unit's import path. Test-augmented units keep the
	// package path; external test units carry the real "_test" package path.
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Fset    *token.FileSet
	// IsTestUnit marks units that include _test.go files.
	IsTestUnit bool
}

// The analysis.Unit accessors.

func (p *Package) Syntax() []*ast.File      { return p.Files }
func (p *Package) TypesPkg() *types.Package { return p.Types }
func (p *Package) TypesInfo() *types.Info   { return p.Info }
func (p *Package) Path() string             { return p.PkgPath }
func (p *Package) FileSet() *token.FileSet  { return p.Fset }

// unit is a built package plus the exact syntax trees it was checked from.
type unit struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// Loader loads and caches packages. Safe for sequential reuse; one Loader
// shares a FileSet and a type-checked package graph across Load calls.
type Loader struct {
	// Dir is the directory go commands run in (the module root or any
	// directory inside it). Defaults to the current directory.
	Dir string
	// FixtureRoot, when non-empty, is a GOPATH-style source root: an import
	// of "a/b" loads FixtureRoot/a/b/*.go when that directory exists, taking
	// priority over the real package (standard library included).
	FixtureRoot string

	fset  *token.FileSet
	metas map[string]*listPkg
	// built caches pure (non-test) packages by import path; checking is
	// recursive through unitImporter, so the cache doubles as the cycle/
	// memoization table.
	built map[string]*unit
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	TestImports  []string
	XTestImports []string
	Deps         []string
	ImportMap    map[string]string
	Error        *struct{ Err string }
}

func (l *Loader) init() {
	if l.fset == nil {
		l.fset = token.NewFileSet()
		l.metas = make(map[string]*listPkg)
		l.built = make(map[string]*unit)
	}
}

// FileSet returns the loader's shared FileSet.
func (l *Loader) FileSet() *token.FileSet {
	l.init()
	return l.fset
}

// goList runs `go list -e -json` with the given arguments and merges the
// results into the metadata cache. CGO is disabled so file selection yields
// pure-Go package bodies that go/types can check without a C compiler.
func (l *Loader) goList(args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var res []*listPkg
	for dec.More() {
		p := &listPkg{}
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
		}
		res = append(res, p)
		l.metas[p.ImportPath] = p
	}
	return res, nil
}

// ensureMetas guarantees list metadata exists for every path in need,
// fetching the missing ones (with their dependency closure) in one go
// command invocation.
func (l *Loader) ensureMetas(need []string) error {
	var missing []string
	seen := make(map[string]bool)
	for _, p := range need {
		if p == "unsafe" || p == "C" || seen[p] {
			continue
		}
		seen[p] = true
		if _, ok := l.metas[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	_, err := l.goList(append([]string{"-deps"}, missing...)...)
	return err
}

// Load type-checks the packages matching the go command patterns and
// returns their analyzer units: the test-augmented unit when the package
// has in-package tests (plus an external-test unit when it has _test
// package files), otherwise the plain unit.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	l.init()
	targets, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	// One go command run resolves the full closure: the targets' own deps
	// plus everything their test files import.
	need := make([]string, 0, len(targets))
	for _, t := range targets {
		need = append(need, t.ImportPath)
		need = append(need, t.TestImports...)
		need = append(need, t.XTestImports...)
	}
	if err := l.ensureMetas(need); err != nil {
		return nil, err
	}
	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 && len(t.TestGoFiles) == 0 && len(t.XTestGoFiles) == 0 {
			continue
		}
		units, err := l.unitsFor(t)
		if err != nil {
			return nil, err
		}
		out = append(out, units...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// unitsFor builds the analyzer unit(s) for one listed target package.
func (l *Loader) unitsFor(t *listPkg) ([]*Package, error) {
	var out []*Package
	var self *types.Package
	if len(t.TestGoFiles) == 0 && len(t.GoFiles) > 0 {
		// No in-package tests: the plain (dependency-graph) unit doubles as
		// the analyzer unit.
		u, err := l.typecheck(t.ImportPath, nil)
		if err != nil {
			return nil, err
		}
		self = u.pkg
		out = append(out, l.wrap(t.ImportPath, t.Dir, u, false))
	} else if len(t.GoFiles) > 0 || len(t.TestGoFiles) > 0 {
		// Test-augmented unit: package sources plus in-package test files,
		// type-checked as one package.
		names := append(append([]string{}, t.GoFiles...), t.TestGoFiles...)
		u, err := l.check(t.ImportPath, t.Dir, names, t.ImportMap, nil)
		if err != nil {
			return nil, err
		}
		self = u.pkg
		out = append(out, l.wrap(t.ImportPath, t.Dir, u, true))
	}
	if len(t.XTestGoFiles) > 0 {
		// The external test package imports the augmented variant, and — as
		// in a real `go test` build — so does every dependency that imports
		// the package under test (a fault-injection driver wrapping the
		// tested driver, say). Those dependencies are re-type-checked against
		// the augmented package inside a per-unit overlay so the whole test
		// graph shares one identity for the tested package's types.
		ctx := &testCtx{root: t.ImportPath, overlay: map[string]*unit{}}
		if selfUnit, ok := findSelf(out, t.ImportPath); ok {
			ctx.overlay[t.ImportPath] = selfUnit
		} else if self != nil {
			ctx.overlay[t.ImportPath] = &unit{pkg: self}
		}
		u, err := l.check(t.ImportPath+"_test", t.Dir, t.XTestGoFiles, t.ImportMap, ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, l.wrap(t.ImportPath+"_test", t.Dir, u, true))
	}
	return out, nil
}

// findSelf recovers the already-built unit for path from the wrapped output.
func findSelf(pkgs []*Package, path string) (*unit, bool) {
	for _, p := range pkgs {
		if p.PkgPath == path {
			return &unit{pkg: p.Types, info: p.Info, files: p.Files}, true
		}
	}
	return nil, false
}

// testCtx scopes one external-test unit's build: root is the package under
// test, overlay caches the augmented root plus every dependency rebuilt
// against it. Packages that do not depend on root keep using the shared
// graph.
type testCtx struct {
	root    string
	overlay map[string]*unit
}

func (l *Loader) wrap(path, dir string, u *unit, test bool) *Package {
	return &Package{
		PkgPath: path, Dir: dir, Files: u.files,
		Types: u.pkg, Info: u.info, Fset: l.fset, IsTestUnit: test,
	}
}

// typecheck builds (or returns the cached) package for an import path. With
// a testCtx, packages depending on the context's root are rebuilt against
// the augmented root inside the context's overlay; everything else shares
// the loader-wide graph.
func (l *Loader) typecheck(path string, ctx *testCtx) (*unit, error) {
	if ctx != nil {
		if u, ok := ctx.overlay[path]; ok {
			return u, nil
		}
		dep, err := l.dependsOn(path, ctx.root)
		if err != nil {
			return nil, err
		}
		if dep {
			m := l.metas[path]
			u, err := l.check(path, m.Dir, m.GoFiles, m.ImportMap, ctx)
			if err != nil {
				return nil, err
			}
			ctx.overlay[path] = u
			return u, nil
		}
		// Independent of the package under test: fall through and share.
	}
	if u, ok := l.built[path]; ok {
		return u, nil
	}
	// Fixture shadowing: a directory below FixtureRoot wins over the real
	// package, standard library included.
	if l.FixtureRoot != "" {
		if dir, names, ok := l.fixtureFiles(path); ok {
			u, err := l.check(path, dir, names, nil, nil)
			if err != nil {
				return nil, err
			}
			l.built[path] = u
			return u, nil
		}
	}
	m, err := l.meta(path)
	if err != nil {
		return nil, err
	}
	u, err := l.check(path, m.Dir, m.GoFiles, m.ImportMap, nil)
	if err != nil {
		return nil, err
	}
	l.built[path] = u
	return u, nil
}

// meta fetches (and caches) list metadata for one import path.
func (l *Loader) meta(path string) (*listPkg, error) {
	if m, ok := l.metas[path]; ok {
		return m, nil
	}
	if err := l.ensureMetas([]string{path}); err != nil {
		return nil, err
	}
	m, ok := l.metas[path]
	if !ok {
		return nil, fmt.Errorf("loader: no package metadata for %q", path)
	}
	return m, nil
}

// dependsOn reports whether path's transitive dependencies include root.
func (l *Loader) dependsOn(path, root string) (bool, error) {
	if l.FixtureRoot != "" {
		if _, _, ok := l.fixtureFiles(path); ok {
			return false, nil
		}
	}
	m, err := l.meta(path)
	if err != nil {
		return false, err
	}
	for _, d := range m.Deps {
		if d == root {
			return true, nil
		}
	}
	return false, nil
}

// fixtureFiles reports the fixture directory and .go files for path, when
// the fixture root shadows it.
func (l *Loader) fixtureFiles(path string) (string, []string, bool) {
	dir := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", nil, false
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", nil, false
	}
	sort.Strings(names)
	return dir, names, true
}

// check parses and type-checks one set of files as a package. A non-nil ctx
// routes imports through an external-test overlay (self-import of the
// package under test plus dependencies rebuilt against it).
func (l *Loader) check(path, dir string, names []string, importMap map[string]string, ctx *testCtx) (*unit, error) {
	var files []*ast.File
	for _, name := range names {
		af, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: &unitImporter{l: l, importMap: importMap, ctx: ctx},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
		Sizes:    types.SizesFor("gc", buildArch()),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	pkg, cerr := conf.Check(path, l.fset, files, info)
	if cerr != nil {
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("loader: type-checking %s: %v", path, typeErrs[0])
		}
		return nil, fmt.Errorf("loader: type-checking %s: %v", path, cerr)
	}
	return &unit{pkg: pkg, info: info, files: files}, nil
}

var archOnce struct {
	val string
}

func buildArch() string {
	if archOnce.val != "" {
		return archOnce.val
	}
	arch := os.Getenv("GOARCH")
	if arch == "" {
		if out, err := exec.Command("go", "env", "GOARCH").Output(); err == nil {
			arch = strings.TrimSpace(string(out))
		}
	}
	if arch == "" {
		arch = "amd64"
	}
	archOnce.val = arch
	return arch
}

// unitImporter resolves one unit's imports: the package's ImportMap first
// (stdlib vendoring), then the test overlay / loader cache / fixture root /
// go list via typecheck.
type unitImporter struct {
	l         *Loader
	importMap map[string]string
	ctx       *testCtx
}

func (u *unitImporter) Import(path string) (*types.Package, error) {
	return u.ImportFrom(path, "", 0)
}

func (u *unitImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if mapped, ok := u.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	built, err := u.l.typecheck(path, u.ctx)
	if err != nil {
		return nil, err
	}
	return built.pkg, nil
}

// LoadFixture loads fixture packages (paths relative to FixtureRoot) as
// analyzer units.
func (l *Loader) LoadFixture(paths ...string) ([]*Package, error) {
	l.init()
	if l.FixtureRoot == "" {
		return nil, fmt.Errorf("loader: LoadFixture requires FixtureRoot")
	}
	var out []*Package
	for _, path := range paths {
		u, err := l.typecheck(path, nil)
		if err != nil {
			return nil, err
		}
		dir, _, ok := l.fixtureFiles(path)
		if !ok {
			return nil, fmt.Errorf("loader: fixture package %q not under %s", path, l.FixtureRoot)
		}
		out = append(out, l.wrap(path, dir, u, false))
	}
	return out, nil
}
