// Command jababench is the repository's end-to-end benchmark. It drives the
// simulator and the admission service only through their public entry
// points (scenario.Lookup, sim.NewEngine, Engine.Run, replay.ReadTrace and
// Resolve, core.JABASD.Schedule, serve.New and its Handler) and changes no
// program code.
//
// Usage (from the repository root; run.sh builds the command first):
//
//	bash perfbench/run.sh --workload metro|city|oracle --seed N --seconds 30 --trace 0|1
//
// Workloads:
//
//   - metro: the metro preset (37 cells, 1110 data users, snapshot frames
//     fanned out per cell, full-scan physics).
//   - city: the city preset (1027 cells, ~103k data users, 8 tiles, a
//     24-cell measurement window, a heap of several hundred MiB).
//   - oracle: serve.New behind a loopback httptest server, answering the
//     non-empty (frame, cell) problems of metro solve traces recorded
//     during untimed set-up, sent by a thin HTTP/1.1 client over one
//     connection.
//
// With --trace 0 the command measures the end-to-end metrics; with --trace 1
// it makes the traced runs that give the per-layer metrics. Either way it
// prints a stamp line (nproc, GOMAXPROCS, Go version, seed and sample
// counts), one "name value unit" line per metric, comment lines for figures
// kept out of the result (such as the open-loop generator's lateness) and,
// last, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Every workload reports the same end-to-end metrics: an operation is a
// frame on metro and city and a request on oracle. It exits 1 when any
// correctness check failed and 2 when it could not measure at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds time.Duration
	workdir string // scratch directory for CPU profiles
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report is what a workload measured.
type report struct {
	attempted, failed int64
	metrics           metricSet
	notes             metricSet // printed as comment lines, not in the result
	samples           []string  // "name=count" pairs for the stamp line
}

func newReport() *report { return &report{metrics: metricSet{}, notes: metricSet{}} }

func (r *report) sample(name string, n int) {
	r.samples = append(r.samples, fmt.Sprintf("%s=%d", name, n))
}

// workload runs one workload in end-to-end (trace false) or traced mode.
type workload func(o options, trace bool) (*report, error)

var workloads = map[string]workload{
	"metro":  metroWorkload.run,
	"city":   cityWorkload.run,
	"oracle": runOracle,
}

// perLayerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer a workload does not exercise reads 0. Each
// such metric is a share or a rate, never a time: the serve.handler_us_*
// and core.* timings are taken on every workload's own problems.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"sim.cores_busy":          "cores",
		"sim.serial_fraction":     "fraction",
		"sim.parallel_efficiency": "fraction",
		"core.solves_per_frame":   "1/frame",
		"core.solve_us_p50":       "us",
		"core.solve_us_p99":       "us",
		"core.share_of_frame":     "fraction",
		"core.grant_ratio":        "fraction",
		"core.greedy_share":       "fraction",
		"core.fallbacks":          "count",
		"serve.handler_us_p50":    "us",
		"serve.handler_us_p99":    "us",
		"serve.transport_share":   "fraction",
		"serve.slo_rate_per_s":    "1/s",
		"runtime.alloc_kb_per_op": "KiB",
		"runtime.gc_per_1k_ops":   "count",
		"runtime.gc_cpu_share":    "fraction",
		"trace.overhead":          "fraction",
	}
	for _, m := range modules {
		u[m+".cpu_share"] = "fraction"
	}
	return u
}()

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("jababench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: metro, city or oracle")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for CPU profiles")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "jababench: want --workload metro|city|oracle, --seconds >= 1 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "jababench:", err)
		return 2
	}
	dir, err := filepath.Abs(*workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jababench:", err)
		return 2
	}
	rep, err := w(options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workdir: dir}, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jababench: %s: %v\n", *name, err)
		return 2
	}
	if *trace == 1 {
		for n, unit := range perLayerUnits {
			if _, ok := rep.metrics[n]; !ok {
				rep.metrics.add(n, 0, unit)
			}
		}
	}
	fmt.Printf("# workload=%s seed=%d trace=%d seconds=%d nproc=%d gomaxprocs=%d go=%s samples: %s\n",
		*name, *seed, *trace, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		strings.Join(rep.samples, " "))
	for _, set := range []struct {
		prefix string
		m      metricSet
	}{{"", rep.metrics}, {"# ", rep.notes}} {
		names := make([]string, 0, len(set.m))
		for n := range set.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s%-28s %14.6g %s\n", set.prefix, n, set.m[n].Value, set.m[n].Unit)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "jababench:", err)
		return 2
	}
	fmt.Println(string(out))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeStats is a snapshot of the runtime/metrics counters the runtime.*
// per-layer metrics are deltas of.
type runtimeStats struct {
	allocBytes, gcCycles, gcCPU, totalCPU, idleCPU float64
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeStats{v[0], v[1], v[2], v[3], v[4]}
}

// addRuntime adds the runtime.* metrics of the interval [a, b] in which ops
// operations (frames or requests) ran.
func addRuntime(out metricSet, a, b runtimeStats, ops int) {
	out.add("runtime.alloc_kb_per_op", (b.allocBytes-a.allocBytes)/1024/float64(ops), "KiB")
	out.add("runtime.gc_per_1k_ops", (b.gcCycles-a.gcCycles)*1000/float64(ops), "count")
	busy := (b.totalCPU - a.totalCPU) - (b.idleCPU - a.idleCPU)
	share := 0.0
	if busy > 0 {
		share = (b.gcCPU - a.gcCPU) / busy
	}
	out.add("runtime.gc_cpu_share", share, "fraction")
}

// liveHeapMiB forces a collection and returns the heap it found live. The
// caller keeps the measured structure reachable across the call.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
