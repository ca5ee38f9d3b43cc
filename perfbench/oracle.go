package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"jabasd/internal/replay"
	"jabasd/internal/serve"
)

const (
	// The request set comes from oracleRuns metro runs of oracleFrames
	// frames, each at its own seed derived from --seed, so its own user
	// placement: one placement alone makes the problems' sizes, and with
	// them the service's cost, vary from seed to seed; the more placements,
	// the less their mean varies. It holds the non-empty problems of the
	// frames after the preset's 5 s warm-up (oracleWarmup frames), while
	// traffic ramps up, taken from the runs in turn frame by frame until
	// oracleBytes of requests are in. A fixed byte budget keeps the request
	// set, and the heap holding it, the same size at every seed; taking the
	// runs in turn lets busy placements make up for quiet ones.
	oracleRuns   = 12
	oracleFrames = 330
	oracleWarmup = 250
	oracleBytes  = 6 << 20
	// oracleSetupReps server start-ups give the median setup_s.
	oracleSetupReps = 201
	// oracleClients is the number of client connections. One keeps the
	// client and the server's connection goroutine to one core each on a
	// 2-core box: with two, four runnable goroutines shared two cores and
	// the same seed's throughput moved 15% from run to run, against 5%
	// with one.
	oracleClients = 1
	// sloLimit is the open-loop latency limit: half a 20 ms frame. On a
	// 2-core box the oracle's p99 sits on a plateau of 3-6 ms, set by
	// garbage-collection pauses, over a wide range of rates; a quarter-frame
	// limit would fall on that plateau, where noise moves the crossing far.
	// Half a frame falls on the steep part of the curve near capacity.
	sloLimit = 10 * time.Millisecond
	// rungLength is the shortest open-loop rung; a rung also runs long
	// enough for its p99 to leave minBeyond samples beyond it. A rung's p99
	// is the median over windows of the rung, so that it reflects sustained
	// queueing, not one stall of a few milliseconds.
	rungLength = 2 * time.Second
	// ladderStep is the ratio between neighbouring rates of the ladder. Past
	// capacity the p99 explodes, so the result is close to the highest
	// passing rung; a fine ladder keeps that from rounding by much.
	ladderStep = 1.05
)

// ladder is the fixed open-loop rate ladder, in requests per second.
var ladder = func() []float64 {
	var r []float64
	for x := 250.0; x < 100000; x *= ladderStep {
		r = append(r, math.Round(x))
	}
	return r
}()

// oracleBench is the admission oracle behind a loopback server, with the
// recorded request bodies and the exact responses they must get.
type oracleBench struct {
	trace   solveTrace // the problems the bodies were made from
	frames  int        // the frames those problems span
	reqs    [][]byte   // whole HTTP requests
	bodies  [][]byte   // their bodies, sharing reqs' memory
	want    [][]byte   // the exact answers they must get
	srv     *serve.Server
	ts      *httptest.Server
	conns   []*rawConn // one per client
	clients int
}

// runOracle measures the oracle workload.
func runOracle(o options, trace bool) (*report, error) {
	rep := newReport()
	b, setup, err := newOracleBench(o.seed, rep)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if trace {
		return rep, b.layers(o, rep)
	}
	// Only the traced run times the scheduler on the problems; dropping
	// them keeps the live heap, which the collector scans, to the server's
	// and the request set's.
	b.trace.problems = nil
	closed, err := b.closedLoop(o.seconds)
	if err != nil {
		return nil, err
	}
	p50, err := segmentPercentile(closed.latMS, closed.done, closed.wall, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := segmentPercentile(closed.latMS, closed.done, closed.wall, 0.90)
	if err != nil {
		return nil, err
	}
	// The oracle workload's operation is a request.
	rep.metrics.add("throughput_per_s", closed.rate(), "1/s")
	rep.metrics.add("latency_ms_p50", p50, "ms")
	rep.metrics.add("latency_ms_p90", p90, "ms")
	rep.metrics.add("setup_s", setup, "s")
	rep.attempted += int64(len(closed.latMS))
	rep.failed += closed.failed
	rep.sample("closed_requests", len(closed.latMS))
	rep.sample("setup_builds", oracleSetupReps)
	// The latency samples are dead by now: the heap is the server's and
	// the request set's.
	rep.metrics.add("heap_mb", liveHeapMiB(), "MiB")
	runtime.KeepAlive(b)
	return rep, nil
}

// newOracleBench records the metro solve traces for seed, verifies them,
// builds the request set, starts the server oracleSetupReps times
// (returning the median start-up time in seconds) and computes every
// request's expected answer with the in-memory handler. Failed checks are
// counted into rep.
func newOracleBench(seed uint64, rep *report) (*oracleBench, float64, error) {
	b := &oracleBench{clients: oracleClients}
	// byRun[r][f] are run r's non-empty problems of frame oracleWarmup+f.
	byRun := make([][][]*replay.Problem, oracleRuns)
	for run := range uint64(oracleRuns) {
		tr, err := recordMetro(seed*oracleRuns+run, oracleFrames)
		if err != nil {
			return nil, 0, err
		}
		bad, err := tr.verify()
		if err != nil {
			return nil, 0, err
		}
		rep.attempted += int64(len(tr.problems))
		rep.failed += int64(bad)
		b.trace.hdr = tr.hdr // the runs differ only in their seed
		byRun[run] = make([][]*replay.Problem, oracleFrames-oracleWarmup)
		for _, p := range tr.problems {
			if f := p.Frame - oracleWarmup; len(p.Requests) > 0 && f >= 0 && f < len(byRun[run]) {
				byRun[run][f] = append(byRun[run][f], p)
			}
		}
	}
	size := 0
	for f := 0; f < oracleFrames-oracleWarmup && size < oracleBytes; f++ {
		for _, frames := range byRun {
			if size >= oracleBytes {
				break
			}
			b.frames++
			for _, p := range frames[f] {
				body, err := oracleBody(b.trace.hdr, p)
				if err != nil {
					return nil, 0, err
				}
				req := encodeRequest(http.MethodPost, "/v1/oracle", body)
				b.trace.problems = append(b.trace.problems, p)
				b.reqs = append(b.reqs, req)
				b.bodies = append(b.bodies, req[len(req)-len(body):])
				size += len(req)
			}
		}
	}
	if size < oracleBytes {
		return nil, 0, fmt.Errorf("%d metro runs offered %d request bytes, want %d", oracleRuns, size, oracleBytes)
	}
	rep.sample("request_frames", b.frames)
	rep.sample("requests", len(b.reqs))

	setups := make([]float64, 0, oracleSetupReps)
	for range oracleSetupReps {
		b.close()
		runtime.GC()
		start := time.Now()
		if err := b.start(); err != nil {
			return nil, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// The in-memory handler's answers are checked against the recorded
	// grants and regions once; the loops then compare bytes.
	var bad int
	b.want, bad = answers(b.srv.Handler(), b.trace.hdr, b.trace.problems, b.bodies)
	rep.attempted += int64(len(b.bodies))
	rep.failed += int64(bad)
	return b, median(setups), nil
}

// oracleBody encodes problem p of a solve trace with header hdr as an
// oracle request body.
func oracleBody(hdr replay.Header, p *replay.Problem) ([]byte, error) {
	return json.Marshal(serve.OracleRequest{Requests: p.Requests, Region: p.Region,
		MaxRatio: hdr.MaxRatio, Objective: hdr.Objective, MAC: &hdr.MAC})
}

// answers calls h in memory once on each body, the encoding of problems[i],
// and checks every answer against the problem's recorded grant and region.
// It returns the answers, the exact bytes later calls must repeat, and how
// many failed the check.
func answers(h http.Handler, hdr replay.Header, problems []*replay.Problem, bodies [][]byte) (want [][]byte, failed int) {
	for i, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/oracle", bytes.NewReader(body)))
		var resp serve.OracleResponse
		p := problems[i]
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil ||
			!slices.Equal(resp.Ratios, p.Ratios) || checkGrant(p, hdr.MaxRatio, resp.Ratios) != nil {
			failed++
		}
		want = append(want, rec.Body.Bytes())
	}
	return want, failed
}

// handlerTimes times h in memory, without a socket and one request at a
// time, passing over bodies until at least minSamples calls were timed. It
// returns the call times (µs), the summed time of the first pass and how
// many answers differ from want.
func handlerTimes(h http.Handler, bodies, want [][]byte, minSamples int) (timesUS []float64, firstPass time.Duration, failed int) {
	for pass := 0; pass == 0 || len(timesUS) < minSamples; pass++ {
		for k, body := range bodies {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/oracle", bytes.NewReader(body))
			start := time.Now()
			h.ServeHTTP(rec, req)
			d := time.Since(start)
			timesUS = append(timesUS, us(d))
			if pass == 0 {
				firstPass += d
			}
			if !bytes.Equal(rec.Body.Bytes(), want[k]) {
				failed++
			}
		}
	}
	return timesUS, firstPass, failed
}

// addHandler adds serve.handler_us_p50 and serve.handler_us_p99.
func addHandler(out metricSet, timesUS []float64) error {
	p50, err := percentile(timesUS, 0.50)
	if err != nil {
		return err
	}
	p99, err := percentile(timesUS, 0.99)
	if err != nil {
		return err
	}
	out.add("serve.handler_us_p50", p50, "us")
	out.add("serve.handler_us_p99", p99, "us")
	return nil
}

// handlerLayer gives an engine workload the service layer's figures: it
// starts a server, checks its in-memory answers to up to limit non-empty
// problems of the run's solve trace t against their recorded grants, and
// times the handler on them.
func handlerLayer(rep *report, t solveTrace, limit int) error {
	var problems []*replay.Problem
	var bodies [][]byte
	for _, p := range t.problems {
		if len(p.Requests) == 0 {
			continue
		}
		body, err := oracleBody(t.hdr, p)
		if err != nil {
			return err
		}
		problems, bodies = append(problems, p), append(bodies, body)
		if len(bodies) == limit {
			break
		}
	}
	if len(bodies) == 0 {
		return fmt.Errorf("solve trace holds no non-empty problem")
	}
	srv := serve.New(serve.Options{})
	defer srv.Close()
	want, bad := answers(srv.Handler(), t.hdr, problems, bodies)
	timesUS, _, badTimed := handlerTimes(srv.Handler(), bodies, want, 2000)
	rep.attempted += int64(len(bodies) + len(timesUS))
	rep.failed += int64(bad + badTimed)
	rep.sample("handler_calls", len(timesUS))
	return addHandler(rep.metrics, timesUS)
}

// recordMetro runs frames metro frames at seed and returns their solve
// trace.
func recordMetro(seed uint64, frames int) (solveTrace, error) {
	cfg, err := metroWorkload.config(seed, frames, 0, nil)
	if err != nil {
		return solveTrace{}, err
	}
	var buf bytes.Buffer
	cfg.SolveTrace = &buf
	e, _, err := build(cfg)
	if err != nil {
		return solveTrace{}, err
	}
	r, err := runEngine(e, nil)
	if err != nil {
		return solveTrace{}, err
	}
	if r.metrics.SkippedCells > 0 {
		return solveTrace{}, fmt.Errorf("metro recording skipped %d cell-frames", r.metrics.SkippedCells)
	}
	return readSolveTrace(buf.Bytes())
}

// start brings a server up, opens the client connections and waits until
// the server reports ready.
func (b *oracleBench) start() error {
	b.srv = serve.New(serve.Options{})
	b.ts = httptest.NewServer(b.srv.Handler())
	b.conns = b.conns[:0]
	for range b.clients {
		c, err := dial(b.ts.Listener.Addr().String())
		if err != nil {
			return err
		}
		b.conns = append(b.conns, c)
	}
	code, _, err := b.conns[0].roundTrip(encodeRequest(http.MethodGet, "/v1/readyz", nil))
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("readyz answered %d", code)
	}
	return nil
}

func (b *oracleBench) close() {
	if b.ts == nil {
		return
	}
	for _, c := range b.conns {
		c.close()
	}
	b.ts.Close()
	b.srv.Close()
	b.ts, b.srv = nil, nil
}

// post sends request k on client w's connection and reports whether the
// exact expected answer came back. A broken connection is redialled.
func (b *oracleBench) post(w, k int) bool {
	code, body, err := b.conns[w].roundTrip(b.reqs[k])
	if err != nil {
		b.conns[w].close()
		if c, err := dial(b.ts.Listener.Addr().String()); err == nil {
			b.conns[w] = c
		}
		return false
	}
	return code == http.StatusOK && bytes.Equal(body, b.want[k])
}

// clientSide runs fn on each of the b.clients client goroutines and waits
// for them. The goroutines carry the pprof label side=client, which the
// traced run drops from the profile so only the server is attributed.
func (b *oracleBench) clientSide(fn func(worker int)) {
	var wg sync.WaitGroup
	for w := range b.clients {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("side", "client"), func(context.Context) {
			defer wg.Done()
			fn(w)
		})
	}
	wg.Wait()
}

// loopResult is one closed-loop run.
type loopResult struct {
	latMS  []float64
	done   []time.Duration // completion offsets from the start
	failed int64
	wall   time.Duration
}

// rate is the closed loop's throughput: the median over segments windows.
func (l loopResult) rate() float64 { return segmentRate(l.done, l.wall) }

// closedLoop keeps b.clients requests in flight for d: each client sends
// its next request when the previous answer arrives. Untimed warm-up
// requests open the connections first.
func (b *oracleBench) closedLoop(d time.Duration) (loopResult, error) {
	var next atomic.Int64
	b.clientSide(func(w int) {
		for range 100 {
			b.post(w, int(next.Add(1))%len(b.bodies))
		}
	})
	lats := make([][]float64, b.clients)
	dones := make([][]time.Duration, b.clients)
	var failed atomic.Int64
	start := time.Now()
	b.clientSide(func(w int) {
		for t := time.Since(start); t < d; {
			ok := b.post(w, int(next.Add(1))%len(b.bodies))
			now := time.Since(start)
			lats[w] = append(lats[w], ms(now-t))
			dones[w] = append(dones[w], now)
			if !ok {
				failed.Add(1)
			}
			t = now
		}
	})
	res := loopResult{wall: time.Since(start), failed: failed.Load()}
	for w := range lats {
		res.latMS = append(res.latMS, lats[w]...)
		res.done = append(res.done, dones[w]...)
	}
	if len(res.latMS) == 0 {
		return res, fmt.Errorf("closed loop completed no request")
	}
	return res, nil
}

// rung is one open-loop rate of the ladder.
type rung struct {
	rate   float64
	latMS  []float64 // from each request's due time, on the ideal timeline
	lateMS []float64 // how late the generator sent each request
	p99    float64
	onTime bool // the schedule finished within sloLimit of its end
	failed int64
}

func (r rung) pass() bool { return r.onTime && r.failed == 0 && r.p99 <= ms(sloLimit) }

// openLoop offers requests at a fixed rate from b.clients connections.
// Request i is due at i/rate; a free client takes the next request and
// sleeps until it is due. Latency is taken from due times on the timeline
// idealTimeline rebuilds, so the sleep's overshoot, which is the
// generator's fault and not the server's, is reported apart as lateness.
func (b *oracleBench) openLoop(rate float64) (rung, error) {
	n := max(int(rate*rungLength.Seconds()), 100*minBeyond+minBeyond)
	period := time.Duration(float64(time.Second) / rate)
	end := time.Duration(n) * period
	sendAt, rtt := make([]time.Duration, n), make([]time.Duration, n)
	var next, failed, sent, lastDone atomic.Int64
	start := time.Now()
	b.clientSide(func(w int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n || time.Since(start) > 4*end {
				return // done, or hopelessly behind
			}
			if wait := time.Duration(i)*period - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			sendAt[i] = time.Since(start)
			ok := b.post(w, i%len(b.bodies))
			done := time.Since(start)
			rtt[i] = done - sendAt[i]
			sent.Add(1)
			if !ok {
				failed.Add(1)
			}
			for last := lastDone.Load(); int64(done) > last && !lastDone.CompareAndSwap(last, int64(done)); {
				last = lastDone.Load()
			}
		}
	})
	r := rung{rate: rate, failed: failed.Load()}
	if sent.Load() < int64(n) {
		return r, nil // not every request went out: the backlog grew
	}
	r.onTime = time.Duration(lastDone.Load()) <= end+sloLimit
	r.latMS, r.lateMS = idealTimeline(period, b.clients, sendAt, rtt)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * period
	}
	var err error
	r.p99, err = segmentPercentile(r.latMS, due, end, 0.99)
	return r, err
}

// idealTimeline replays an open loop without the generator's timer:
// requests in due order (request i is due at i*period) go first-come
// first-served to whichever of the conns connections frees first, start at
// max(due, that connection free) and last their measured round trip rtt.
// Queueing behind slow answers counts; a late wake-up does not. It returns
// each request's latency from its due time, and how far its real send
// (sendAt) trailed its ideal start: the generator's lateness.
func idealTimeline(period time.Duration, conns int, sendAt, rtt []time.Duration) (latMS, lateMS []float64) {
	free := make([]time.Duration, conns)
	latMS, lateMS = make([]float64, len(rtt)), make([]float64, len(rtt))
	for i := range rtt {
		due := time.Duration(i) * period
		k := slices.Index(free, slices.Min(free))
		begin := max(due, free[k])
		free[k] = begin + rtt[i]
		latMS[i] = ms(free[k] - due)
		lateMS[i] = ms(max(sendAt[i]-begin, 0))
	}
	return latMS, lateMS
}

// climb walks the ladder up from the highest rate at most 70% of the
// closed-loop throughput and returns the highest rate that meets the SLO:
// p99 <= sloLimit with no growing backlog. A single rung can fail on a
// stray stall, so the walk goes on until two rungs in a row fail, one
// fails by a wide margin, or the budget is spent; if nothing passed it
// walks down instead. The result is interpolated in log p99 between the
// highest passing rung and the failing rung just above it.
func (b *oracleBench) climb(closedRate float64, budget time.Duration) (float64, []rung, error) {
	first := max(0, highestAtMost(ladder, 0.7*closedRate))
	results := make(map[int]rung)
	var rungs []rung
	best, fails := -1, 0
	start := time.Now()
	try := func(i int) (rung, error) {
		r, err := b.openLoop(ladder[i])
		if err == nil {
			rungs = append(rungs, r)
			results[i] = r
			fmt.Printf("# open loop %6.0f/s: p99 %.3f ms, on time %v, failed %d\n", r.rate, r.p99, r.onTime, r.failed)
		}
		time.Sleep(50 * time.Millisecond) // let the server drain
		return r, err
	}
	for i := first; i < len(ladder) && time.Since(start) < budget; i++ {
		r, err := try(i)
		if err != nil {
			return 0, nil, err
		}
		if r.pass() {
			best, fails = i, 0
			continue
		}
		if fails++; fails == 2 || !r.onTime || r.p99 > 4*ms(sloLimit) {
			break
		}
	}
	for i := first - 1; best < 0 && i >= 0; i-- {
		r, err := try(i)
		if err != nil {
			return 0, nil, err
		}
		if r.pass() {
			best = i
		}
	}
	if best < 0 {
		return ladder[0], rungs, nil
	}
	pass, above := results[best], results[best+1]
	limit := ms(sloLimit)
	if above.rate == 0 || above.p99 <= limit {
		return pass.rate, rungs, nil
	}
	frac := math.Log(limit/pass.p99) / math.Log(above.p99/pass.p99)
	return pass.rate * math.Pow(above.rate/pass.rate, min(max(frac, 0), 1)), rungs, nil
}

// highestAtMost returns the index of the highest rate <= x, or -1.
func highestAtMost(rates []float64, x float64) int {
	i := 0
	for i < len(rates) && rates[i] <= x {
		i++
	}
	return i - 1
}

// layers makes the oracle's traced runs: an untraced closed loop (A), a
// closed loop under a CPU profile (B), a short open-loop ladder for the
// SLO rate and the generator's lateness, and the in-memory handler and
// scheduler timings.
func (b *oracleBench) layers(o options, rep *report) error {
	rt0 := readRuntime()
	a, err := b.closedLoop(o.seconds / 4)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	profile := filepath.Join(o.workdir, fmt.Sprintf("oracle-%d.pprof", os.Getpid()))
	defer os.Remove(profile)
	var tb loopResult
	if err := cpuProfile(profile, func() (err error) { tb, err = b.closedLoop(o.seconds / 4); return err }); err != nil {
		return err
	}
	slo, rungs, err := b.climb(a.rate(), o.seconds/4)
	if err != nil {
		return err
	}
	var late []float64
	for _, r := range rungs {
		late = append(late, r.lateMS...)
		rep.failed += r.failed
	}
	rep.attempted += int64(len(a.latMS) + len(tb.latMS) + len(late))
	rep.failed += a.failed + tb.failed

	// The handler alone: in memory, no socket, one request at a time.
	handlerUS, handlerPass, bad := handlerTimes(b.srv.Handler(), b.bodies, b.want, 2000)
	rep.attempted += int64(len(handlerUS))
	rep.failed += int64(bad)
	if err := addHandler(rep.metrics, handlerUS); err != nil {
		return err
	}
	lateP99, err := percentile(late, 0.99)
	if err != nil {
		return err
	}
	st, err := b.trace.timeSolves(2000)
	if err != nil {
		return err
	}
	if err := st.metrics(rep.metrics, len(b.trace.problems), b.frames, handlerPass); err != nil {
		return err
	}
	shares, err := profileShares(profile, "-tagignore=side=client")
	if err != nil {
		return err
	}
	for m, s := range shares {
		rep.metrics.add(m+".cpu_share", s, "fraction")
	}
	rep.metrics.add("serve.transport_share", 1-mean(handlerUS)/(1000*mean(a.latMS)), "fraction")
	rep.metrics.add("serve.slo_rate_per_s", slo, "1/s")
	// The generator's lateness keeps slo_rate_per_s honest; it is a figure
	// of the load generator, not of any layer, so it stays out of the result.
	rep.notes.add("gen.late_ms_p99", lateP99, "ms")
	addRuntime(rep.metrics, rt0, rt1, len(a.latMS))
	perReq := func(l loopResult) float64 { return l.wall.Seconds() / float64(len(l.latMS)) }
	rep.metrics.add("trace.overhead", perReq(tb)/perReq(a)-1, "fraction")
	rep.sample("closed_requests", len(a.latMS))
	rep.sample("ladder_rungs", len(rungs))
	rep.sample("ladder_requests", len(late))
	rep.sample("handler_calls", len(handlerUS))
	rep.sample("timed_solves", len(st.timesUS))
	return nil
}
