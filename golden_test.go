package jabasd_bench

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// gate is one byte gate: its commands run in order in one temporary
// directory, then its checks compare their outputs. An output is a file a
// command writes there or a command's stdout ("cmd args > name"). Gates
// with the same share run in one directory, and a command that several of
// them list runs once for all of them.
type gate struct {
	name   string
	amd64  bool // the golden pins amd64 kernel bits
	share  string
	cmds   []string
	checks []check
}

// check verifies the outputs of gate g, written to dir.
type check func(g gate, dir string) error

// gates is every byte gate of the repository. Commands name jabasim,
// jabasweep or jabaexp; an argument under testdata/ names a committed file.
// The exact-path (-exact-vtaoc) goldens hold on any architecture. Where the
// compiler fuses multiply-adds, the default fast path's Go kernels may round
// differently, so its goldens are amd64 goldens.
var gates = []gate{
	// The city preset engages windowed physics, the spatial index and the
	// per-cell solve fan-out at once. Its two runs serve two gates, which
	// start first as the longest: trace-city-fast runs the inline one and
	// checks every 25th frame of its trace against the golden, and
	// city-workers runs the auto one and compares the pair.
	{name: "trace-city-fast", amd64: true, share: "city", cmds: []string{cityInline},
		checks: []check{goldenRows("city-w1.csv", "trace-city-fast.csv", 25)}},
	{name: "city-workers", share: "city", cmds: []string{
		"jabasim -preset city -sim-time 1 -trace city-auto.csv -trace-every 5 > city-auto.txt",
		cityInline,
	}, checks: []check{same("city-w1.txt", "city-auto.txt"), same("city-w1.csv", "city-auto.csv")}},

	// Worker-count determinism: -parallel, -frameparallel and the inline
	// frame loop must not change a byte of the sweep CSV, the printed
	// metrics or the trace.
	{name: "sweep-parallel", cmds: []string{
		"jabasweep -preset smoke -axis datausers=2,4 -reps 2 -parallel 1 -o sweep-p1.csv",
		"jabasweep -preset smoke -axis datausers=2,4 -reps 2 -parallel 8 -o sweep-p8.csv",
	}, checks: []check{same("sweep-p1.csv", "sweep-p8.csv")}},
	{name: "sweep-snapshot-workers", cmds: []string{
		"jabasweep -preset smoke -axis datausers=2,4 -reps 2 -framemode snapshot -frameparallel 1 -o frame-w1.csv",
		"jabasweep -preset smoke -axis datausers=2,4 -reps 2 -framemode snapshot -frameparallel 8 -o frame-w8.csv",
		"jabasweep -preset smoke -axis datausers=2,4 -reps 2 -framemode snapshot -o frame-auto.csv",
	}, checks: []check{same("frame-w1.csv", "frame-w8.csv"), same("frame-w1.csv", "frame-auto.csv")}},
	{name: "sweep-sequential-workers", cmds: []string{
		"jabasweep -preset smoke -axis datausers=2,4 -reps 2 -framemode sequential -frameparallel 1 -o seq-w1.csv",
		"jabasweep -preset smoke -axis datausers=2,4 -reps 2 -framemode sequential -frameparallel 8 -o seq-w8.csv",
	}, checks: []check{same("seq-w1.csv", "seq-w8.csv")}},
	{name: "sim-sequential-workers", cmds: []string{
		"jabasim -preset smoke -framemode sequential -frameparallel 1 -trace seq-trace-w1.csv > seq-trace-w1.txt",
		"jabasim -preset smoke -framemode sequential -frameparallel 8 -trace seq-trace-w8.csv > seq-trace-w8.txt",
	}, checks: []check{same("seq-trace-w1.txt", "seq-trace-w8.txt"), same("seq-trace-w1.csv", "seq-trace-w8.csv")}},
	{name: "sim-snapshot-workers", cmds: []string{
		"jabasim -preset smoke -framemode snapshot -frameparallel 1 -trace trace-w1.csv",
		"jabasim -preset smoke -framemode snapshot -frameparallel 7 -trace trace-w7.csv",
		"jabasim -preset smoke -framemode snapshot -frameparallel 8 -trace trace-w8.csv",
	}, checks: []check{same("trace-w1.csv", "trace-w7.csv"), same("trace-w1.csv", "trace-w8.csv")}},
	{name: "fast-determinism", cmds: []string{
		"jabasim -preset smoke -data-users 20 -trace fast-a.csv",
		"jabasim -preset smoke -data-users 20 -trace fast-b.csv",
		"jabasim -preset smoke -data-users 20 -framemode snapshot -frameparallel 1 -trace fast-w1.csv",
		"jabasim -preset smoke -data-users 20 -framemode snapshot -frameparallel 8 -trace fast-w8.csv",
	}, checks: []check{same("fast-a.csv", "fast-b.csv"), same("fast-w1.csv", "fast-w8.csv")}},
	// Sweep goldens: datausers=14 separates the two frame modes, and the
	// random scheduler's rows pin the per-(frame, cell) reseed.
	{name: "sweep-smoke-sequential", cmds: []string{
		"jabasweep -exact-vtaoc -preset smoke -axis datausers=2,4,14 -reps 2 -o got.csv",
	}, checks: []check{golden("got.csv", "sweep-smoke-sequential.csv")}},
	{name: "sweep-smoke-snapshot", cmds: []string{
		"jabasweep -exact-vtaoc -preset smoke -axis datausers=2,4,14 -reps 2 -framemode snapshot -frameparallel 8 -o got.csv",
	}, checks: []check{golden("got.csv", "sweep-smoke-snapshot.csv")}},
	{name: "sweep-smoke-schedulers", cmds: []string{
		"jabasweep -exact-vtaoc -preset smoke -axis scheduler=jaba-sd,jaba-sd-greedy,fcfs,equal-share,random " +
			"-axis framemode=sequential,snapshot -axis datausers=4,14 -reps 2 -frameparallel 8 -o got.csv",
	}, checks: []check{golden("got.csv", "sweep-smoke-schedulers.csv")}},
	// All fourteen experiments at quick scale, one replication each.
	{name: "jabaexp-quick", cmds: []string{
		"jabaexp -exact-vtaoc -scale quick -out exp",
	}, checks: experimentGoldens()},

	// Telemetry trace goldens. The snapshot trace runs at 20 data users,
	// where the two frame modes diverge at seed 1; the metro trace pins the
	// exact path on 37 cells.
	{name: "trace-smoke-sequential", cmds: []string{
		"jabasim -exact-vtaoc -preset smoke -trace got.csv -trace-every 50",
	}, checks: []check{golden("got.csv", "trace-smoke-sequential.csv")}},
	{name: "trace-smoke-snapshot", cmds: []string{
		"jabasim -exact-vtaoc -preset smoke -data-users 20 -framemode snapshot -frameparallel 8 -trace got.csv -trace-every 50",
	}, checks: []check{golden("got.csv", "trace-smoke-snapshot.csv")}},
	{name: "trace-metro-exact", cmds: []string{
		"jabasim -exact-vtaoc -preset metro -sim-time 10 -trace got.csv -trace-every 50",
	}, checks: []check{golden("got.csv", "trace-metro-exact.csv")}},
	{name: "trace-reverse-exact", cmds: []string{
		"jabasim -preset reverse -sim-time 30 -exact-vtaoc -trace got.csv -trace-every 50",
	}, checks: []check{golden("got.csv", "trace-reverse-exact.csv")}},
	// Every reverse (frame, cell) problem and its grants, request by request.
	{name: "solve-trace-reverse-exact", cmds: []string{
		"jabasim -preset reverse -exact-vtaoc -sim-time 10 -solve-trace got.jsonl",
	}, checks: []check{golden("got.jsonl", "solve-trace-reverse-exact.jsonl")}},
	{name: "trace-smoke-fast", amd64: true, cmds: []string{
		"jabasim -preset smoke -data-users 20 -trace got.csv -trace-every 50",
	}, checks: []check{golden("got.csv", "trace-smoke-fast.csv")}},
	{name: "trace-metro-fast", amd64: true, cmds: []string{
		"jabasim -preset metro -sim-time 20 -trace got.csv -trace-every 50",
	}, checks: []check{golden("got.csv", "trace-metro-fast.csv")}},
	{name: "trace-reverse-fast", amd64: true, cmds: []string{
		"jabasim -preset reverse -sim-time 30 -trace got.csv -trace-every 50",
	}, checks: []check{golden("got.csv", "trace-reverse-fast.csv")}},

	// Outage goldens (centre cell down over frames 120-180), identical on
	// one and eight workers. At 30 data users a request is migrated off the
	// down cell, so the spill golden pins the spillover move. The same
	// run's printed metrics, outage lines included, pin jabasim's stdout.
	{name: "trace-smoke-outage", cmds: []string{
		"jabasim -exact-vtaoc -preset smoke -fault-profile outage -framemode snapshot -frameparallel 1 -trace outage-w1.csv -trace-every 25 > outage-w1.txt",
		"jabasim -exact-vtaoc -preset smoke -fault-profile outage -framemode snapshot -frameparallel 8 -trace outage-w8.csv -trace-every 25 > outage-w8.txt",
	}, checks: []check{
		golden("outage-w1.csv", "trace-smoke-outage.csv"),
		same("outage-w1.csv", "outage-w8.csv"),
		same("outage-w1.txt", "outage-w8.txt"),
		holds("outage-w1.csv", "a cell is down and idle (a line ends in ,1,0,idle)", func(b []byte) bool {
			return bytes.Contains(b, []byte(",1,0,idle\n"))
		}),
	}},
	{name: "trace-smoke-outage-spill", cmds: []string{
		"jabasim -exact-vtaoc -preset smoke -fault-profile outage -framemode snapshot -data-users 30 -frameparallel 1 -trace spill-w1.csv -trace-every 25 > spill-w1.txt",
		"jabasim -exact-vtaoc -preset smoke -fault-profile outage -framemode snapshot -data-users 30 -frameparallel 8 -trace spill-w8.csv -trace-every 25 > spill-w8.txt",
	}, checks: []check{
		golden("spill-w1.csv", "trace-smoke-outage-spill.csv"),
		golden("spill-w8.csv", "trace-smoke-outage-spill.csv"),
		golden("spill-w1.txt", "metrics-smoke-outage-spill.txt"),
		same("spill-w1.txt", "spill-w8.txt"),
		holds("spill-w1.csv", "a request is migrated (some row has a non-zero spill column)", spills),
	}},

	// Checkpoint and resume: a checkpointed run must not perturb the
	// simulation, and a resumed run must finish like the straight run. The
	// city gate resumes a moving 24-cell window; the outage gates resume
	// after recovery (frame 200) and mid-outage with requests queued, one
	// migrated off the down cell (frame 160).
	resumeGate("resume-smoke", 150, "-preset smoke -sim-time 4"),
	resumeGate("resume-city", 40, "-preset city -data-users 5 -sim-time 1.2"),
	resumeGate("resume-outage-after", 200, "-exact-vtaoc -preset smoke -fault-profile outage -sim-time 6"),
	resumeGate("resume-outage-during", 160, "-exact-vtaoc -preset smoke -fault-profile outage -sim-time 6 -data-users 30"),
	// A fixture written by an earlier build of this format version resumes
	// to this build's straight run (TestResumeCommittedCheckpoints in
	// internal/sim holds the other fixtures and the writing side).
	{name: "resume-fixture", cmds: []string{
		"jabasim -preset reverse -exact-vtaoc -sim-time 8 -trace full.csv > full.txt",
		"jabasim -resume testdata/checkpoint/v7-reverse-exact.ckpt -trace resumed.csv > resumed.txt",
	}, checks: []check{same("full.txt", "resumed.txt"), resumedTail("resumed.csv", "full.csv", 300)}},
	// The solve trace replays to the committed grants under the recorded
	// scheduler and a counterfactual one, and the two must differ, or the
	// -scheduler flag could rot into a no-op.
	{name: "replay", cmds: []string{
		"jabasim -exact-vtaoc -preset smoke -sim-time 3 -data-users 24 -solve-trace solves.jsonl",
		"jabasim -replay testdata/golden/solve-trace-smoke.jsonl -replay-out recorded.csv",
		"jabasim -replay testdata/golden/solve-trace-smoke.jsonl -scheduler jaba-sd-greedy -replay-out greedy.csv",
	}, checks: []check{
		golden("solves.jsonl", "solve-trace-smoke.jsonl"),
		golden("recorded.csv", "replay-grants-jaba-sd.csv"),
		golden("greedy.csv", "replay-grants-greedy.csv"),
		func(_ gate, dir string) error {
			a, b := readOutput(dir, "recorded.csv"), readOutput(dir, "greedy.csv")
			if a != nil && bytes.Equal(a, b) {
				return fmt.Errorf("counterfactual grants are identical to the recorded grants")
			}
			return nil
		},
	}},
}

// cityInline is the inline city run that the city gates share.
const cityInline = "jabasim -preset city -sim-time 1 -frameparallel 1 -trace city-w1.csv -trace-every 5 > city-w1.txt"

// TestGoldenTable runs every gate in gates against binaries built from this
// tree. A failed golden check prints the command that rewrites the golden.
func TestGoldenTable(t *testing.T) {
	bin := t.TempDir()
	goBuild(t, bin, "./cmd/jabasim", "./cmd/jabasweep", "./cmd/jabaexp")
	shared := map[string]*sharedDir{}
	for _, g := range gates {
		if g.share != "" && shared[g.share] == nil {
			shared[g.share] = &sharedDir{dir: t.TempDir(), runs: map[string]func() error{}}
		}
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			if g.amd64 && runtime.GOARCH != "amd64" {
				t.Skipf("golden pins amd64 kernel bits; GOARCH is %s", runtime.GOARCH)
			}
			t.Parallel()
			dir, run := t.TempDir(), runGateCmd
			if s := shared[g.share]; s != nil {
				dir, run = s.dir, s.run
			}
			for _, line := range g.cmds {
				if err := run(bin, dir, line); err != nil {
					t.Error(err)
				}
			}
			for _, c := range g.checks {
				if err := c(g, dir); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// sharedDir is the directory of the gates with one share, with the
// commands they have run there.
type sharedDir struct {
	dir  string
	mu   sync.Mutex
	runs map[string]func() error // by command line
}

// run runs command line in s.dir once; later calls wait for that run and
// return its error.
func (s *sharedDir) run(bin, _, line string) error {
	s.mu.Lock()
	r := s.runs[line]
	if r == nil {
		r = sync.OnceValue(func() error { return runGateCmd(bin, s.dir, line) })
		s.runs[line] = r
	}
	s.mu.Unlock()
	return r()
}

// parseCmd splits a gate command into its binary, arguments and the output
// its stdout goes to ("" discards it).
func parseCmd(line string) (bin string, args []string, stdout string) {
	f := strings.Fields(line)
	if n := len(f); n > 2 && f[n-2] == ">" {
		stdout, f = f[n-1], f[:n-2]
	}
	return f[0], f[1:], stdout
}

// runGateCmd runs one gate command in dir. Arguments under testdata/ are
// read first, so that the test cache keys on the committed inputs.
func runGateCmd(bin, dir, line string) error {
	name, args, stdout := parseCmd(line)
	for i, a := range args {
		if strings.HasPrefix(a, "testdata/") {
			if _, err := os.ReadFile(a); err != nil {
				return err
			}
			abs, err := filepath.Abs(a)
			if err != nil {
				return err
			}
			args[i] = abs
		}
	}
	cmd := exec.Command(filepath.Join(bin, name), args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s: %v\n%s", line, err, stderr.Bytes())
	}
	if stdout == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(dir, stdout), out, 0o644)
}

// regenerate returns the shell command, run from the module root, that
// writes output out of gate g to path. Other files the command wrote into
// the gate's directory dir go to /dev/null.
func (g gate) regenerate(out, path, dir string) string {
	for _, line := range g.cmds {
		name, args, stdout := parseCmd(line)
		writes, pre, post := stdout == out, "", ""
		for i, a := range args {
			if a == out {
				args[i], writes = path, true
			} else if file, ok := strings.CutPrefix(out, a+"/"); ok { // out lies in directory a
				args[i], writes = "$d", true
				pre, post = "d=$(mktemp -d) && ", " && cp $d/"+file+" "+path
			} else if _, err := os.Stat(filepath.Join(dir, a)); err == nil {
				args[i] = "/dev/null"
			}
		}
		if !writes {
			continue
		}
		if stdout == out {
			stdout = path
		} else {
			stdout = "/dev/null"
		}
		return pre + "go run ./cmd/" + name + " " + strings.Join(args, " ") + " > " + stdout + post
	}
	return "(no command of gate " + g.name + " writes " + out + ")"
}

// readOutput returns output name of a gate, or nil when no command wrote it
// (the failed command is reported on its own).
func readOutput(dir, name string) []byte {
	b, _ := os.ReadFile(filepath.Join(dir, name))
	return b
}

// golden requires output out to equal testdata/golden/file.
func golden(out, file string) check { return goldenRows(out, file, 1) }

// goldenRows requires output out to equal testdata/golden/file. When every
// exceeds 1, out is a trace CSV and only its header and its rows at frames
// that are multiples of every are compared: a trace at a finer cadence
// holds every row of the coarser one.
func goldenRows(out, file string, every int) check {
	return func(g gate, dir string) error {
		path := "testdata/golden/" + file
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got, regen := readOutput(dir, out), g.regenerate(out, path, dir)
		if every > 1 {
			got = traceRows(got, func(frame int) bool { return frame%every == 0 })
			regen += fmt.Sprintf(" && awk -F, 'NR == 1 || $1 %% %d == 0' %s > %s.tmp && mv %s.tmp %s", every, path, path, path, path)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s differs from %s: %s\nregenerate it with:\n\t%s", out, path, firstDiff(want, got), regen)
		}
		return nil
	}
}

// traceRows returns the header of trace CSV b and the rows whose frame
// (the first column) satisfies keep, or nil when b is nil.
func traceRows(b []byte, keep func(frame int) bool) []byte {
	if b == nil {
		return nil
	}
	header, rows, _ := bytes.Cut(b, []byte("\n"))
	out := append(append([]byte{}, header...), '\n')
	for _, row := range bytes.SplitAfter(rows, []byte("\n")) {
		frame, _, _ := bytes.Cut(row, []byte(","))
		if f, err := strconv.Atoi(string(frame)); err == nil && keep(f) {
			out = append(out, row...)
		}
	}
	return out
}

// experimentGoldens requires jabaexp's CSV of each of experiments E1-E14,
// written under exp/, to equal its quick-scale golden.
func experimentGoldens() []check {
	var checks []check
	for i := 1; i <= 14; i++ {
		checks = append(checks, golden(fmt.Sprintf("exp/e%d.csv", i), fmt.Sprintf("jabaexp-e%d-quick.csv", i)))
	}
	return checks
}

// same requires outputs a and b of one gate to be byte-identical.
func same(a, b string) check {
	return func(_ gate, dir string) error {
		x, y := readOutput(dir, a), readOutput(dir, b)
		if x == nil || !bytes.Equal(x, y) {
			return fmt.Errorf("%s and %s differ: %s", a, b, firstDiff(x, y))
		}
		return nil
	}
}

// resumedTail requires the trace of a run resumed at frame k to equal the
// straight run's trace header plus its rows from frame k on (the first
// column is the frame index).
func resumedTail(resumed, straight string, k int) check {
	return func(_ gate, dir string) error {
		full := readOutput(dir, straight)
		want := traceRows(full, func(frame int) bool { return frame >= k })
		if got := readOutput(dir, resumed); full == nil || !bytes.Equal(got, want) {
			return fmt.Errorf("%s is not %s from frame %d on: %s", resumed, straight, k, firstDiff(want, got))
		}
		return nil
	}
}

// holds requires output out to satisfy ok, described by what.
func holds(out, what string, ok func([]byte) bool) check {
	return func(_ gate, dir string) error {
		if !ok(readOutput(dir, out)) {
			return fmt.Errorf("%s: want %s", out, what)
		}
		return nil
	}
}

// spills reports whether some row of a trace CSV has a non-zero spill
// column.
func spills(trace []byte) bool {
	lines := strings.Split(strings.TrimSuffix(string(trace), "\n"), "\n")
	col := -1
	for i, name := range strings.Split(lines[0], ",") {
		if name == "spill" {
			col = i
		}
	}
	for _, line := range lines[1:] {
		if f := strings.Split(line, ","); col >= 0 && col < len(f) && f[col] != "0" {
			return true
		}
	}
	return false
}

// resumeGate runs flags straight, again with a checkpoint at frame k, and
// resumed from that checkpoint: the checkpoint must not perturb the run, and
// the resumed run must print the straight run's metrics and trace its rows
// from frame k on.
func resumeGate(name string, k int, flags string) gate {
	return gate{name: name, cmds: []string{
		"jabasim " + flags + " -trace full.csv > full.txt",
		fmt.Sprintf("jabasim %s -checkpoint state.ckpt -checkpoint-every %d -trace ckpt.csv > ckpt.txt", flags, k),
		"jabasim -resume state.ckpt -trace resumed.csv > resumed.txt",
	}, checks: []check{
		same("full.txt", "ckpt.txt"),
		same("full.csv", "ckpt.csv"),
		same("full.txt", "resumed.txt"),
		resumedTail("resumed.csv", "full.csv", k),
	}}
}

// firstDiff describes the first line at which got departs from want.
func firstDiff(want, got []byte) string {
	if got == nil {
		return "no output"
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	return fmt.Sprintf("line %d is %s, want %s", i+1, lineAt(g, i), lineAt(w, i))
}

// lineAt quotes line i of lines, shortened to 120 bytes.
func lineAt(lines []string, i int) string {
	if i >= len(lines) {
		return "past the end"
	}
	if l := lines[i]; len(l) > 120 {
		return strconv.Quote(l[:120]) + "..."
	}
	return strconv.Quote(lines[i])
}

// goBuild builds pkgs with the go tool into dir, or discards the binaries
// when dir is "". go test caches a pass keyed on the files the test process
// opens, and the go tool's reads do not count, so goBuild first reads every
// non-test Go and assembly file of pkgs and the module packages they
// import: an edit to any of them then reruns the test.
func goBuild(t *testing.T, dir string, pkgs ...string) {
	t.Helper()
	list := goTool(t, append([]string{"list", "-deps", "-f",
		`{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}
{{end}}{{range .SFiles}}{{$.Dir}}/{{.}}
{{end}}{{end}}`}, pkgs...)...)
	for _, path := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		if _, err := os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	args := []string{"build"}
	if dir != "" {
		args = append(args, "-o", dir+string(filepath.Separator))
	}
	goTool(t, append(args, pkgs...)...)
}

// goTool runs the go command and returns its stdout. A missing go tool
// fails the test: the gates it runs would otherwise pass unrun.
func goTool(t *testing.T, args ...string) []byte {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool not found: %v", err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(gobin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}
