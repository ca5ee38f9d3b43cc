package jabasd_bench

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
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
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
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
	if err != nil {
		t.Fatal(err)
	}
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
