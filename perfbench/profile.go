package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
)

// repoLayers are the repository's packages under internal/ that a CPU
// profile is attributed to by name.
var repoLayers = []string{
	"cellular", "channel", "spatial", "mathx", "rng", "mobility", "vtaoc",
	"traffic", "measurement", "load", "core", "ilp", "sim", "stream", "serve",
}

// modules are all layers a CPU profile is attributed to: repoLayers, the
// standard-library layers the service runs on, and "other" for everything
// else, so the shares always sum to 1.
var modules = append(append([]string(nil), repoLayers...), "json", "nethttp", "runtime", "other")

// packagePath extracts the import path from a pprof function name such as
// "jabasd/internal/channel.(*Batch).AdvanceFast" or "runtime.mallocgc".
func packagePath(fn string) string {
	s := strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexAny(s, "[("); i >= 0 {
		s = s[:i] // generic shapes and receivers may themselves hold paths
	}
	slash := strings.LastIndex(s, "/")
	dot := strings.Index(s[slash+1:], ".")
	if dot < 0 {
		return s
	}
	return s[:slash+1+dot]
}

// moduleOf maps a function name to its layer. The internal lp package is
// the LP relaxation inside the ilp solver, so it counts as ilp; the JSON
// codec's reflection and number formatting count as json; sockets,
// polling, system calls and buffered I/O count as nethttp; the scheduler,
// allocator, collector and sync primitives count as runtime.
func moduleOf(fn string) string {
	pkg := packagePath(fn)
	if rest, ok := strings.CutPrefix(pkg, "jabasd/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		if name == "lp" {
			return "ilp"
		}
		if slices.Contains(repoLayers, name) {
			return name
		}
		return "other"
	}
	switch {
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "mathx"
	case pkg == "encoding/json" || pkg == "reflect" || pkg == "strconv":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio" || pkg == "internal/poll" ||
		pkg == "syscall" || strings.HasPrefix(pkg, "internal/syscall/") || pkg == "internal/runtime/syscall":
		return "nethttp"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "sync" || pkg == "sync/atomic":
		return "runtime"
	}
	return "other"
}

// groupTop sums the flat column of `go tool pprof -top -unit=ms` output by
// module and returns each module's share of the listed samples.
func groupTop(top string) (map[string]float64, error) {
	flat := make(map[string]float64, len(modules))
	total := 0.0
	header := false
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		flat[moduleOf(strings.Join(f[5:], " "))] += v
		total += v
	}
	if !header || total == 0 {
		return nil, fmt.Errorf("pprof listed no samples")
	}
	shares := make(map[string]float64, len(modules))
	for _, m := range modules {
		shares[m] = flat[m] / total
	}
	return shares, nil
}

// cpuProfile records a CPU profile of fn into path.
func cpuProfile(path string, fn func() error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if runErr != nil {
		return runErr
	}
	return f.Close()
}

// profileShares groups the flat samples of a profile by module with the
// installed `go tool pprof`. filters are extra pprof options (such as
// -ignore or -tagignore) that drop the harness's own samples.
func profileShares(path string, filters ...string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", "-symbolize=none"}, filters...)
	out, err := exec.Command("go", append(args, path)...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go tool pprof: %v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return groupTop(string(out))
}
