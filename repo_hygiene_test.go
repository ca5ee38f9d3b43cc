package jabasd_bench

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNoTrackedBinaries fails when a compiled binary is tracked by git.
// Stray `go build` outputs (the jabasim ELF, *.test binaries) have been
// committed and removed twice already; this gate makes the mistake fail CI
// instead of recurring. A file counts as a binary when its first bytes are
// an executable magic number (ELF, Mach-O, PE) — extension lists rot,
// magic numbers do not.
func TestNoTrackedBinaries(t *testing.T) {
	out, err := exec.Command("git", "ls-files").Output()
	if err != nil {
		t.Skipf("git ls-files unavailable: %v", err)
	}
	var offenders []string
	for _, name := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if name == "" {
			continue
		}
		f, err := os.Open(name)
		if err != nil {
			continue // deleted in the working tree; nothing to inspect
		}
		head := make([]byte, 4)
		n, _ := f.Read(head)
		f.Close()
		if isBinaryMagic(head[:n]) {
			offenders = append(offenders, name)
		}
	}
	if len(offenders) > 0 {
		t.Errorf("tracked compiled binaries (git rm them; build outputs belong in .gitignore): %v", offenders)
	}
}

// isBinaryMagic reports whether the first bytes of a file identify a
// compiled executable: ELF (linux), Mach-O 32/64/fat (darwin), or MZ (pe).
func isBinaryMagic(head []byte) bool {
	if bytes.HasPrefix(head, []byte("\x7fELF")) {
		return true
	}
	machO := [][]byte{
		{0xfe, 0xed, 0xfa, 0xce}, {0xfe, 0xed, 0xfa, 0xcf},
		{0xcf, 0xfa, 0xed, 0xfe}, {0xce, 0xfa, 0xed, 0xfe},
		{0xca, 0xfe, 0xba, 0xbe},
	}
	for _, m := range machO {
		if bytes.Equal(head, m) {
			return true
		}
	}
	return bytes.HasPrefix(head, []byte("MZ"))
}

// walkGoFiles calls fn on every .go file under root (slash-separated
// paths relative to the working directory). Nested modules other than
// root itself, testdata and hidden directories are skipped.
func walkGoFiles(t *testing.T, root string, fn func(path string) error) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		return fn(filepath.ToSlash(path))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// goPackages maps every package directory of the module rooted at the
// working directory (slash-separated, relative) to its module-local
// imports, split into those of the non-test files and those of the
// _test.go files. Nested modules, testdata and hidden directories are
// skipped. Only import clauses are parsed.
func goPackages(t *testing.T) (code, tests map[string][]string) {
	t.Helper()
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	var module string
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	if module == "" {
		t.Fatal("go.mod names no module")
	}
	code, tests = map[string][]string{}, map[string][]string{}
	fset := token.NewFileSet()
	walkGoFiles(t, ".", func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		into := code
		if strings.HasSuffix(path, "_test.go") {
			into = tests
		} else if _, ok := code[dir]; !ok {
			code[dir] = nil
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if rel, ok := strings.CutPrefix(ip, module+"/"); ok {
				into[dir] = append(into[dir], rel)
			}
		}
		return nil
	})
	return code, tests
}

// TestInternalPackagesReachable fails when an internal package is dead
// code: not reachable from any command or example through non-test
// imports. A package imported only by other packages' tests (a test
// helper such as internal/race) is allowed.
func TestInternalPackagesReachable(t *testing.T) {
	code, tests := goPackages(t)
	reached := map[string]bool{}
	var queue []string
	for dir := range code {
		if strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/") {
			reached[dir] = true
			queue = append(queue, dir)
		}
	}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for _, imp := range code[dir] {
			if !reached[imp] {
				reached[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	testOnly := map[string]bool{}
	for dir, imps := range tests {
		for _, imp := range imps {
			if imp != dir {
				testOnly[imp] = true
			}
		}
	}
	var dead []string
	for dir := range code {
		if strings.HasPrefix(dir, "internal/") && !reached[dir] && !testOnly[dir] {
			dead = append(dead, dir)
		}
	}
	slices.Sort(dead)
	if len(dead) > 0 {
		t.Errorf("internal packages unreachable from cmd/... and examples/... (delete them or wire them in): %v", dead)
	}
}

// TestInternalPackageComments requires every internal package to carry a
// godoc package comment: some non-test file's doc comment, directly above
// its package clause, starts with "Package <name> ".
func TestInternalPackageComments(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		documented := false
		for _, f := range parsePackage(t, fset, dir, parser.PackageClauseOnly|parser.ParseComments) {
			documented = documented || strings.HasPrefix(f.Doc.Text(), "Package "+f.Name.Name+" ")
		}
		if !documented {
			t.Errorf("%s has no package comment (// Package %s ... above a package clause)", dir, filepath.Base(dir))
		}
	}
}

// docInternalPath matches repository paths such as internal/sim,
// internal/sim/engine.go or internal/fault.Schedule in prose.
var docInternalPath = regexp.MustCompile(`internal/[A-Za-z0-9_./-]+`)

// TestDocsNameExistingInternalPaths fails when README.md or a docs/*.md
// page names an internal/<x> path that does not exist. A reference ending
// in .go must name a file; anything else is cut at its first dot (a Go
// identifier such as internal/fault.Schedule, or sentence punctuation)
// and must name a directory.
func TestDocsNameExistingInternalPaths(t *testing.T) {
	pages, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range append([]string{"README.md"}, pages...) {
		src, err := os.ReadFile(page)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range docInternalPath.FindAllString(string(src), -1) {
			path := strings.TrimRight(ref, "./-")
			if !strings.HasSuffix(path, ".go") {
				path, _, _ = strings.Cut(path, ".")
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s names %s, which does not exist", page, ref)
			}
		}
	}
}

// unreferencedExportsAllowed lists exported types, functions and methods
// under internal/ that no non-test code names, each with the reason it
// stays. Keys are "<package dir>.<Type>", "<package dir>.<Func>" or
// "<package dir>.<Type>.<Method>".
var unreferencedExportsAllowed = map[string]string{
	// Paper equations (docs/PAPER_MAPPING.md).
	"internal/vtaoc.RatePlan.RelativeBitRate": "paper eq. (4): relative SCH bit rate",
	"internal/vtaoc.RatePlan.PowerRatio":      "paper eq. (5): SCH/FCH transmit power ratio",
	"internal/mac.Config.StateForWait":        "paper eq. (23) and Figure 3: MAC state for a waiting time",
	"internal/mac.Config.OverallDelay":        "paper eq. (22): the overall delay a waiting time costs",
	"internal/vtaoc.BER":                      "paper Section 2: the per-mode BER that requiredSNR inverts into the constant-BER thresholds",

	// Test oracles: references and checks that tests run.
	"internal/cellular.Layout.NearestCell":   "test oracle of spatial.Index's nearest-cell queries",
	"internal/cellular.Layout.NearestCellSq": "test oracle of spatial.Index's nearest-cell queries, squared distances",
	"internal/channel.Batch.ShadowRow":       "tests compare batch shadowing with the scalar Link chain through it",
}

// TestExportedSymbolsReachable fails when an exported top-level type,
// function or method declared in a non-test file under internal/ is
// reached by no non-test code of internal/, cmd/, examples/ or perfbench/.
// Names are resolved by go/types, so a name shared with a field or another
// type's method does not hide dead code. A function or method is reached
// when a non-test identifier other than its declaration resolves to it. A
// type is reached when a non-test identifier outside its own declaration
// and outside every `var _ T = ...` assertion resolves to it: an interface
// that only assertions name is consumed by nothing. A method
// is also reached when it implements a method that non-test code calls
// through an interface, or a method of error, json.Marshaler or
// json.Unmarshaler, which the standard library calls on its own.
// fmt.Stringer is not on that list: a String method that only test code
// calls would otherwise pass, so one that only %v/%s formatting reaches is
// allowlisted with a reason naming that non-test call site. Symbols kept on
// purpose go in unreferencedExportsAllowed with a reason.
func TestExportedSymbolsReachable(t *testing.T) {
	pkgs, std := typeCheckTree(t, "internal", "cmd", "examples", "perfbench")
	reached := map[types.Object]bool{}
	var ifaceCalls []*types.Func // interface methods non-test code calls
	for _, p := range pkgs {
		ignored := typeUsesIgnored(p)
		for id, obj := range p.info.Uses {
			if tn, ok := obj.(*types.TypeName); ok && !ignored(id, tn) {
				reached[tn] = true
			}
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			reached[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceCalls = append(ifaceCalls, fn)
			}
		}
	}
	for _, obj := range []types.Object{
		std("encoding/json").Scope().Lookup("Marshaler"),
		std("encoding/json").Scope().Lookup("Unmarshaler"),
		types.Universe.Lookup("error"),
	} {
		ifaceCalls = append(ifaceCalls, obj.Type().Underlying().(*types.Interface).Method(0))
	}
	implementsCalled := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, im := range ifaceCalls {
			if im.Name() != m.Name() {
				continue
			}
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	var dead []string
	allowedDead := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		unreached := func(name *ast.Ident, key string) {
			if _, ok := unreferencedExportsAllowed[key]; ok {
				allowedDead[key] = true
			} else {
				dead = append(dead, key+" ("+p.fset.Position(name.Pos()).String()+")")
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if ok && ts.Name.IsExported() && !reached[p.info.Defs[ts.Name]] {
							unreached(ts.Name, p.dir+"."+ts.Name.Name)
						}
					}
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := p.info.Defs[d.Name].(*types.Func)
					if reached[fn] || (d.Recv != nil && implementsCalled(fn)) {
						continue
					}
					key := p.dir + "." + d.Name.Name
					if d.Recv != nil {
						key = p.dir + "." + receiverType(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					unreached(d.Name, key)
				}
			}
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("exported symbol reached by no non-test code (delete it, or allow it with a reason): %s", d)
	}
	for key, reason := range unreferencedExportsAllowed {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("allowlist entry %s gives no reason", key)
		case !allowedDead[key]:
			t.Errorf("allowlist entry %s names no unreached exported symbol (remove the entry)", key)
		}
	}
}

// typeUsesIgnored returns whether a use id of type tn in package p does not
// reach tn: id lies inside tn's own type declaration, or inside a
// `var _ T = ...` assertion (a value spec that declares only blank names).
func typeUsesIgnored(p *checkedPackage) func(id *ast.Ident, tn *types.TypeName) bool {
	own := map[types.Object]ast.Node{}
	var asserts []ast.Node
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				own[p.info.Defs[n.Name]] = n
			case *ast.ValueSpec:
				if !slices.ContainsFunc(n.Names, func(id *ast.Ident) bool { return id.Name != "_" }) {
					asserts = append(asserts, n)
				}
			}
			return true
		})
	}
	within := func(id *ast.Ident, n ast.Node) bool { return n != nil && n.Pos() <= id.Pos() && id.End() <= n.End() }
	return func(id *ast.Ident, tn *types.TypeName) bool {
		return within(id, own[tn]) || slices.ContainsFunc(asserts, func(n ast.Node) bool { return within(id, n) })
	}
}

// checkedPackage is one type-checked package: its non-test files and the
// identifier resolutions of its type check.
type checkedPackage struct {
	dir   string // slash-separated, relative to the working directory
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// typeCheckTree type-checks the non-test files of every package under the
// given roots, selected as go build would for this platform. Module
// packages are parsed from their directories; the standard library is
// checked from source (go/importer's "source" importer, no network), with
// cgo off so no C toolchain runs. It returns the checked packages and a
// lookup of standard-library packages.
func typeCheckTree(t *testing.T, roots ...string) ([]*checkedPackage, func(path string) *types.Package) {
	t.Helper()
	// Both importers read build.Default.
	saved := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = saved })
	fset := token.NewFileSet()
	imp := &treeImporter{t: t, fset: fset, std: importer.ForCompiler(fset, "source", nil),
		dirs: map[string]bool{}, done: map[string]*checkedPackage{}}
	for _, root := range roots {
		walkGoFiles(t, root, func(path string) error {
			if !strings.HasSuffix(path, "_test.go") {
				imp.dirs[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return nil
		})
	}
	var out []*checkedPackage
	for _, dir := range slices.Sorted(maps.Keys(imp.dirs)) {
		out = append(out, imp.check(dir))
	}
	std := func(path string) *types.Package {
		pkg, err := imp.std.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		return pkg
	}
	return out, std
}

// treeImporter type-checks the tree's packages from their directories on
// demand and hands every other import to the standard-library importer.
// A package in directory dir has import path "jabasd/" + dir (perfbench, a
// nested module, is jabasd/perfbench).
type treeImporter struct {
	t    *testing.T
	fset *token.FileSet
	std  types.Importer
	dirs map[string]bool
	done map[string]*checkedPackage
}

func (m *treeImporter) Import(path string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(path, "jabasd/"); ok && m.dirs[dir] {
		return m.check(dir).pkg, nil
	}
	return m.std.Import(path)
}

// check parses and type-checks the package in dir once.
func (m *treeImporter) check(dir string) *checkedPackage {
	if p, ok := m.done[dir]; ok {
		return p
	}
	p := &checkedPackage{dir: dir, fset: m.fset, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	p.files = parsePackage(m.t, m.fset, dir, parser.SkipObjectResolution)
	conf := types.Config{Importer: m}
	var err error
	if p.pkg, err = conf.Check("jabasd/"+dir, m.fset, p.files, p.info); err != nil {
		m.t.Fatalf("type-check %s: %v", dir, err)
	}
	m.done[dir] = p
	return p
}

// parsePackage parses the non-test files of the package in dir, selected as
// go build would for this platform.
func parsePackage(t *testing.T, fset *token.FileSet, dir string, mode parser.Mode) []*ast.File {
	t.Helper()
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// receiverType names a method receiver's type without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
