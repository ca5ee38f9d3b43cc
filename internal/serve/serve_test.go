package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"jabasd/internal/core"
	"jabasd/internal/jobspec"
	"jabasd/internal/measurement"
	"jabasd/internal/report"
	"jabasd/internal/sim"
	"jabasd/internal/sweep"
)

// newTestServer starts a Server plus an httptest front end and registers
// both for cleanup.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// submit posts a job spec and returns the accepted job's ID.
func submit(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	code, body := post(t, ts.URL+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("fresh job state = %s, want queued", st.State)
	}
	return st.ID
}

// jobStatus fetches one job's status document.
func jobStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	code, body := get(t, ts.URL+"/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("status returned %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (terminal states also accept
// having raced past running).
func waitState(t *testing.T, ts *httptest.Server, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := jobStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s settled at %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %s waiting for %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

const quickSweepSpec = `{"kind":"sweep","sweep":{"preset":"smoke","axes":["datausers=2,4"],"reps":2,"overrides":{"exact_phy":true}}}`

// slowSweepSpec runs long enough to observe running/queued states; the
// simulated 300 s take real-world seconds, and cancellation stops it at a
// frame boundary long before that.
const slowSweepSpec = `{"kind":"sweep","sweep":{"preset":"smoke","axes":["datausers=4"],"overrides":{"sim_time":300}}}`

func TestHealthzAndCatalogEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if code, body := get(t, ts.URL+"/v1/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/presets"); code != http.StatusOK || !strings.Contains(string(body), "smoke") {
		t.Errorf("presets: %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/grids"); code != http.StatusOK || !strings.Contains(string(body), "paper-load-sweep") {
		t.Errorf("grids: %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/axes"); code != http.StatusOK || !strings.Contains(string(body), "datausers") {
		t.Errorf("axes: %d %s", code, body)
	}
}

// expectedSweepCSV renders, in process, the exact CSV jabasweep prints
// for spec — resolved through jobspec and streamed row by row, as the
// command does: the byte-compatibility oracle for the server's stream and
// result endpoints.
func expectedSweepCSV(t *testing.T, spec jobspec.SweepSpec) string {
	t.Helper()
	grid, opts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	tbl := sweep.NewCurveTable(grid)
	var sb strings.Builder
	sb.WriteString(report.CSVLine(tbl.Columns))
	err = sweep.Stream(context.Background(), grid, opts, func(r sweep.Result) error {
		sb.WriteString(report.CSVLine(sweep.AppendCurveRow(tbl, r)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// tableDoc is the JSON form of a report.Table, a table job's result.
type tableDoc struct {
	Columns []string            `json:"columns"`
	Rows    []map[string]string `json:"rows"`
}

// tableResult fetches a finished job's JSON result as a table.
func tableResult(t *testing.T, ts *httptest.Server, id string) tableDoc {
	t.Helper()
	code, body := get(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result returned %d: %s", code, body)
	}
	var doc tableDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("result is not a table document: %v\n%s", err, body)
	}
	return doc
}

func TestSweepJobStreamsCLIIdenticalCSV(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submit(t, ts, quickSweepSpec)

	// The CSV stream follows the job live and terminates with it, so a
	// plain GET doubles as the completion wait.
	code, body := get(t, ts.URL+"/v1/jobs/"+id+"/stream")
	if code != http.StatusOK {
		t.Fatalf("stream returned %d: %s", code, body)
	}
	want := expectedSweepCSV(t, jobspec.SweepSpec{
		Scenario:  jobspec.Scenario{Preset: "smoke"},
		Axes:      []string{"datausers=2,4"},
		Reps:      2,
		Overrides: jobspec.Overrides{ExactPHY: true},
	})
	if string(body) != want {
		t.Errorf("streamed CSV differs from the CLI bytes:\n--- server\n%s--- direct\n%s", body, want)
	}

	st := jobStatus(t, ts, id)
	if st.State != StateDone || st.RowsDone != 2 || st.RowsTotal != 2 || st.Finished == "" {
		t.Errorf("finished status: %+v", st)
	}

	// The result endpoint re-serves the same rows after completion.
	code, body = get(t, ts.URL+"/v1/jobs/"+id+"/result?format=csv")
	if code != http.StatusOK || string(body) != want {
		t.Errorf("result csv (%d) differs from the CLI bytes:\n%s", code, body)
	}
	if doc := tableResult(t, ts, id); len(doc.Rows) != 2 || doc.Rows[0]["datausers"] != "2" {
		t.Errorf("result rows: %+v", doc.Rows)
	}
}

// TestSweepJobMatchesGoldenCSV drives the committed golden scenario through
// the HTTP path: the streamed bytes must equal testdata/golden exactly, the
// same gate the CLI CI job enforces.
func TestSweepJobMatchesGoldenCSV(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "sweep-smoke-sequential.csv"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{})
	id := submit(t, ts,
		`{"kind":"sweep","sweep":{"preset":"smoke","axes":["datausers=2,4,14"],"reps":2,"overrides":{"exact_phy":true}}}`)
	code, body := get(t, ts.URL+"/v1/jobs/"+id+"/stream")
	if code != http.StatusOK {
		t.Fatalf("stream returned %d", code)
	}
	if !bytes.Equal(body, golden) {
		t.Errorf("server sweep differs from the golden CSV:\n--- server\n%s--- golden\n%s", body, golden)
	}
}

// TestRunJobReturnsAggregate checks that a run job returns the one-row
// curve table of a zero-axis sweep: its CSV result is the bytes jabasweep
// prints for the same scenario, and its JSON result carries the numbers
// jabasim -reps 2 prints, 4 significant digits each.
func TestRunJobReturnsAggregate(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submit(t, ts, `{"kind":"run","run":{"preset":"smoke","reps":2,"overrides":{"sim_time":3}}}`)
	waitState(t, ts, id, StateDone)

	code, body := get(t, ts.URL+"/v1/jobs/"+id+"/result?format=csv")
	want := expectedSweepCSV(t, jobspec.SweepSpec{
		Scenario:  jobspec.Scenario{Preset: "smoke"},
		Reps:      2,
		Overrides: jobspec.Overrides{SimTime: 3},
	})
	if code != http.StatusOK || string(body) != want {
		t.Errorf("run job csv (%d) differs from the jabasweep bytes:\n--- server\n%s--- jabasweep\n%s", code, body, want)
	}

	cfg, reps, err := jobspec.RunSpec{
		Scenario:  jobspec.Scenario{Preset: "smoke"},
		Reps:      2,
		Overrides: jobspec.Overrides{SimTime: 3},
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sim.RunReplications(context.Background(), cfg, reps)
	if err != nil {
		t.Fatal(err)
	}
	doc := tableResult(t, ts, id)
	if len(doc.Rows) != 1 || len(doc.Columns) != 11 || doc.Columns[0] != "reps" {
		t.Fatalf("run job result is not a one-row curve table: %+v", doc)
	}
	row := doc.Rows[0]
	if row["reps"] != "2" {
		t.Errorf("reps = %q, want 2", row["reps"])
	}
	for col, v := range map[string]float64{
		"admission_prob": agg.CompletionRate.Mean(),
		"tput_cell_bps":  agg.Throughput.Mean(),
		"outage":         1 - agg.Coverage.Mean(),
		"mean_delay_s":   agg.MeanDelay.Mean(),
		"delay_ci95":     agg.MeanDelay.ConfidenceInterval95(),
		"p90_delay_s":    agg.P90Delay.Mean(),
		"cell_load":      agg.CellLoad.Mean(),
	} {
		if want := strconv.FormatFloat(v, 'g', 4, 64); row[col] != want {
			t.Errorf("%s = %q, want jabasim's %s", col, row[col], want)
		}
	}
	if agg.Throughput.Mean() == 0 || agg.MeanDelay.Mean() == 0 {
		t.Errorf("the oracle run carried no traffic: %+v", agg)
	}
}

func TestExperimentsJobStreamsTables(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submit(t, ts, `{"kind":"experiments","experiments":{"only":["E1"],"scale":"quick","exact_phy":true}}`)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/stream", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 { // E1 row + terminal state
		t.Fatalf("expected 2 NDJSON lines, got %d:\n%s", len(lines), body)
	}
	var event struct {
		Experiment string          `json:"experiment"`
		Table      json.RawMessage `json:"table"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &event); err != nil {
		t.Fatal(err)
	}
	if event.Experiment != "E1" || len(event.Table) == 0 {
		t.Errorf("unexpected experiment event: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"state":"done"`) {
		t.Errorf("missing terminal state line: %s", lines[1])
	}
}

func TestCreateJobRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, body string
	}{
		{"invalid json", `{"kind":`},
		{"unknown kind", `{"kind":"teleport","run":{"preset":"smoke"}}`},
		{"no spec", `{"kind":"run"}`},
		{"two specs", `{"kind":"run","run":{"preset":"smoke"},"sweep":{"preset":"smoke"}}`},
		{"kind/spec mismatch", `{"kind":"run","sweep":{"preset":"smoke"}}`},
		{"unknown preset", `{"kind":"run","run":{"preset":"nope"}}`},
		{"preset and config", `{"kind":"run","run":{"preset":"smoke","config":{"SimTime":3}}}`},
		{"override conflicts with axis", `{"kind":"sweep","sweep":{"preset":"smoke","axes":["datausers=2,4"],"overrides":{"data_users":8}}}`},
		{"bad axis", `{"kind":"sweep","sweep":{"preset":"smoke","axes":["warp=1,2"]}}`},
		{"bad override enum", `{"kind":"run","run":{"preset":"smoke","overrides":{"scheduler":"bogus"}}}`},
		{"unknown experiment", `{"kind":"experiments","experiments":{"only":["E99"]}}`},
	}
	for _, tc := range cases {
		code, body := post(t, ts.URL+"/v1/jobs", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: got %d (%s), want 400", tc.name, code, body)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("%s: missing error envelope: %s", tc.name, body)
		}
	}
	// Nothing above should have registered a job.
	code, body := get(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Errorf("job list after rejected submissions: %d %s", code, body)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/v1/jobs/job-999", "/v1/jobs/job-999/result", "/v1/jobs/job-999/stream"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("%s: got %d, want 404", path, code)
		}
	}
}

func TestResultConflictAndCancel(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submit(t, ts, slowSweepSpec)
	waitState(t, ts, id, StateRunning)

	if code, body := get(t, ts.URL+"/v1/jobs/"+id+"/result"); code != http.StatusConflict {
		t.Errorf("result of a running job: got %d (%s), want 409", code, body)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}
	start := time.Now()
	st := waitState(t, ts, id, StateCancelled)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; the job should stop at a frame boundary", elapsed)
	}
	if st.Error == "" {
		t.Error("cancelled job should carry the cancellation error")
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+id+"/result"); code != http.StatusConflict {
		t.Errorf("result of a cancelled job: got %d, want 409", code)
	}
}

func TestQueueBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, Options{QueueDepth: 1, Workers: 1})
	running := submit(t, ts, slowSweepSpec)
	waitState(t, ts, running, StateRunning)
	queued := submit(t, ts, slowSweepSpec) // fills the single queue slot

	code, body := post(t, ts.URL+"/v1/jobs", quickSweepSpec)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: got %d (%s), want 429", code, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("429 body should explain the queue: %s", body)
	}

	// Cancelling the queued job settles it immediately — the worker never
	// picks it up.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Errorf("queued job after cancel: %s, want cancelled", st.State)
	}
	// Unblock the worker; the cancelled queued job is skipped, freeing the
	// queue slot.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitState(t, ts, running, StateCancelled)
	// A rejected overflow must not leak an ID: the next accepted job gets
	// the next consecutive number, and it runs to completion now that the
	// worker is free.
	next := submit(t, ts, quickSweepSpec)
	if next != "job-3" {
		t.Errorf("post-429 job ID = %s, want job-3 (429 must not consume IDs)", next)
	}
	waitState(t, ts, next, StateDone)
}

// oracleProblem mirrors the canonical small problem from the core package
// tests: one cell, three requests, a known non-trivial optimum.
func oracleProblem() core.Problem {
	return core.Problem{
		Requests: []core.Request{
			{UserID: 1, SizeBits: 1e6, WaitingTime: 0.5, AvgThroughput: 0.5, MaxRatio: 8},
			{UserID: 2, SizeBits: 1e6, WaitingTime: 4.0, AvgThroughput: 0.25, MaxRatio: 8},
			{UserID: 3, SizeBits: 1e6, WaitingTime: 12.0, AvgThroughput: 1.0, MaxRatio: 8},
		},
		Region: measurement.Region{
			Coeff: [][]float64{{2, 3, 5}},
			Bound: []float64{10},
			Cells: []int{0},
		},
		MaxRatio:  8,
		Objective: core.Objective{Kind: core.ObjectiveDelayAware, Lambda: 0.05, RateScale: 16},
	}
}

// TestOracleMatchesDirectSolver is the oracle acceptance gate: the HTTP
// grants must be identical to calling core.JABASD.Schedule directly on the
// same problem.
func TestOracleMatchesDirectSolver(t *testing.T) {
	problem := oracleProblem()
	want, err := core.NewJABASD().Schedule(problem)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{})
	body, err := json.Marshal(OracleRequest{
		Requests:  problem.Requests,
		Region:    problem.Region,
		MaxRatio:  problem.MaxRatio,
		Objective: problem.Objective,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, respBody := post(t, ts.URL+"/v1/oracle", string(body))
	if code != http.StatusOK {
		t.Fatalf("oracle returned %d: %s", code, respBody)
	}
	var got OracleResponse
	if err := json.Unmarshal(respBody, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ratios, want.Ratios) {
		t.Errorf("oracle ratios %v, direct solver %v", got.Ratios, want.Ratios)
	}
	if got.Objective != want.Objective || got.Scheduler != want.Scheduler {
		t.Errorf("oracle (%v, %s) vs direct (%v, %s)", got.Objective, got.Scheduler, want.Objective, want.Scheduler)
	}
	if got.Served != want.Served() || got.TotalRatio != want.TotalRatio() {
		t.Errorf("oracle served/total %d/%d vs direct %d/%d", got.Served, got.TotalRatio, want.Served(), want.TotalRatio())
	}
	if want.TotalRatio() == 0 {
		t.Fatal("test problem should grant something; the comparison is vacuous")
	}
}

func TestOracleBaselinesAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	problem := oracleProblem()
	mk := func(scheduler string) string {
		body, err := json.Marshal(OracleRequest{
			Scheduler: scheduler,
			Requests:  problem.Requests,
			Region:    problem.Region,
			MaxRatio:  problem.MaxRatio,
			Objective: problem.Objective,
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	code, body := post(t, ts.URL+"/v1/oracle", mk("fcfs"))
	if code != http.StatusOK || !strings.Contains(string(body), "FCFS") {
		t.Errorf("fcfs oracle: %d %s", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/oracle", mk("warp-drive")); code != http.StatusBadRequest {
		t.Errorf("unknown scheduler: got %d (%s), want 400", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/oracle", `{"requests":[],"max_ratio":0}`); code != http.StatusBadRequest {
		t.Errorf("invalid problem: got %d (%s), want 400", code, body)
	}
	if code, _ := post(t, ts.URL+"/v1/oracle", `{"max_ratio":`); code != http.StatusBadRequest {
		t.Errorf("invalid JSON: got %d, want 400", code)
	}
	badMAC := strings.Replace(mk(""), `"max_ratio"`, `"mac":{"T2":2,"T3":1,"D1":0.1,"D2":1},"max_ratio"`, 1)
	if code, body := post(t, ts.URL+"/v1/oracle", badMAC); code != http.StatusBadRequest || !strings.Contains(string(body), "mac: require") {
		t.Errorf("inconsistent MAC config: got %d (%s), want 400", code, body)
	}
}

// nonFiniteBodies hold finite values whose objective overflows float64:
// J2's delay penalty in the first, J1's weighted rate in the second.
var nonFiniteBodies = [][]byte{
	[]byte(`{"requests":[{"UserID":1,"SizeBits":1e6,"WaitingTime":1e308,"SetupDelay":1e308,"AvgThroughput":0.5,"MaxRatio":8}],` +
		`"region":{"Coeff":[[2]],"Bound":[10],"Cells":[0]},"max_ratio":8,"objective":{"Kind":"j2","Lambda":1e308,"RateScale":16}}`),
	[]byte(`{"requests":[{"UserID":1,"SizeBits":1e308,"Priority":1e308,"AvgThroughput":1e308,"MaxRatio":8}],` +
		`"region":{"Coeff":[[2]],"Bound":[10],"Cells":[0]},"max_ratio":8,"objective":{"Kind":"j1"}}`),
}

func TestOracleNonFiniteObjectiveIs400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, body := range nonFiniteBodies {
		code, resp := post(t, ts.URL+"/v1/oracle", string(body))
		var envelope map[string]string
		if code != http.StatusBadRequest || json.Unmarshal(resp, &envelope) != nil || envelope["error"] == "" {
			t.Errorf("body %s: got %d %q, want 400 with the error envelope", body, code, resp)
		}
	}
}

func TestStreamSSEFraming(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submit(t, ts, quickSweepSpec)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if got := strings.Count(string(body), "event: row\n"); got != 2 {
		t.Errorf("expected 2 row events, got %d:\n%s", got, body)
	}
	if !strings.Contains(string(body), "event: end\ndata: {\"error\":\"\",\"state\":\"done\"}") {
		t.Errorf("missing end event:\n%s", body)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+id+"/stream?format=telegraph"); code != http.StatusBadRequest {
		t.Error("unknown stream format should 400")
	}
}

// TestConcurrentJobsUnderLoad is the race-detector load gate (CI runs the
// package under -race): many clients submit, follow and poll overlapping
// jobs against a small worker pool.
func TestConcurrentJobsUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 3, QueueDepth: 32})
	const jobs = 6
	spec := `{"kind":"sweep","sweep":{"preset":"smoke","axes":["datausers=2"],"overrides":{"sim_time":3}}}`

	var wg sync.WaitGroup
	ids := make([]string, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
			if err != nil {
				errs[i] = err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("submit %d: %d %s", i, resp.StatusCode, body)
				return
			}
			var st JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				errs[i] = err
				return
			}
			ids[i] = st.ID
			// Half the clients follow the stream, half poll the status and
			// job-list endpoints while the job runs.
			if i%2 == 0 {
				streamResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
				if err != nil {
					errs[i] = err
					return
				}
				io.Copy(io.Discard, streamResp.Body)
				streamResp.Body.Close()
			} else {
				for {
					resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
					if err != nil {
						errs[i] = err
						return
					}
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					var cur JobStatus
					if err := json.Unmarshal(data, &cur); err != nil {
						errs[i] = err
						return
					}
					if cur.State.Terminal() {
						return
					}
					if listResp, err := http.Get(ts.URL + "/v1/jobs"); err == nil {
						io.Copy(io.Discard, listResp.Body)
						listResp.Body.Close()
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for _, id := range ids {
		st := waitState(t, ts, id, StateDone)
		if st.RowsDone != 1 {
			t.Errorf("job %s finished with %d rows, want 1", id, st.RowsDone)
		}
	}
}

// BenchmarkServerSweep and BenchmarkDirectSweep back the throughput
// acceptance: a sweep through the HTTP job path must not be slower than the
// same grid run directly (the CLI path), because both funnel into the same
// sweep.Stream fan-out and the HTTP layering is per-job, not per-frame.
func benchSweepSpec() string {
	return `{"kind":"sweep","sweep":{"preset":"smoke","axes":["datausers=2,4"],"overrides":{"sim_time":3}}}`
}

func BenchmarkServerSweep(b *testing.B) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(benchSweepSpec()))
		if err != nil {
			b.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		stream, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, stream.Body)
		stream.Body.Close()
	}
}

func BenchmarkDirectSweep(b *testing.B) {
	grid, err := sweep.New("smoke", []string{"datausers=2,4"})
	if err != nil {
		b.Fatal(err)
	}
	opts := sweep.Options{Mutate: func(cfg *sim.Config) { cfg.SimTime = 3 }}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sweep.Stream(context.Background(), grid, opts, func(sweep.Result) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// quickRunSpec is a single run that finishes in well under a second.
const quickRunSpec = `{"kind":"run","run":{"preset":"smoke","overrides":{"sim_time":3,"data_users":2}}}`

// listJobs fetches the job list.
func listJobs(t *testing.T, ts *httptest.Server) []JobStatus {
	t.Helper()
	code, body := get(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list returned %d: %s", code, body)
	}
	var out []JobStatus
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJobJournalLifecycle: an accepted job's spec is journaled until the job
// settles, and a settled job leaves nothing behind.
func TestJobJournalLifecycle(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	id := submit(t, ts, quickRunSpec)
	waitState(t, ts, id, StateDone)
	// The journal entry is removed under the same lock that publishes the
	// terminal state, so observing done means the file is already gone.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("journal not drained after completion: %d entries left", len(entries))
	}
}

// TestJobJournalRecovery: a spec left behind by a dead process is re-submitted
// on start, runs to completion and drains the journal.
func TestJobJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-7.json"), []byte(quickRunSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	jobs := listJobs(t, ts)
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	waitState(t, ts, jobs[0].ID, StateDone)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("journal not drained after recovery: %d entries left", len(entries))
	}
}

// TestJobJournalSkipsBadSpec: an unresolvable journal entry is left in place
// for the operator, never deleted or turned into a job.
func TestJobJournalSkipsBadSpec(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "job-1.json")
	if err := os.WriteFile(bad, []byte(`{"kind":"run","run":{"preset":"no-such-preset"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	if jobs := listJobs(t, ts); len(jobs) != 0 {
		t.Fatalf("bad journal entry produced %d jobs", len(jobs))
	}
	if _, err := os.Stat(bad); err != nil {
		t.Fatalf("bad journal entry was deleted: %v", err)
	}
}

// TestRunJobCheckpointResume drives the checkpoint/resume cycle through the
// HTTP API: a run that checkpoints, a resumed run picking the scenario up
// from the file, and a semantically incompatible resume refused at
// submission with a 400.
func TestRunJobCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "state.ckpt")
	_, ts := newTestServer(t, Options{Workers: 1})

	spec := fmt.Sprintf(`{"kind":"run","run":{"preset":"smoke","overrides":{"sim_time":3,"data_users":2},"checkpoint":{"path":%q,"every":25}}}`, ck)
	id := submit(t, ts, spec)
	waitState(t, ts, id, StateDone)
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	// The one engine's metrics are a one-replication curve-table row.
	doc := tableResult(t, ts, id)
	if len(doc.Rows) != 1 || doc.Rows[0]["reps"] != "1" {
		t.Fatalf("checkpointed run result is not a one-row table with reps 1: %+v", doc)
	}
	if tput, err := strconv.ParseFloat(doc.Rows[0]["tput_cell_bps"], 64); err != nil || tput == 0 {
		t.Errorf("checkpointed run tput_cell_bps = %q, want a non-zero number", doc.Rows[0]["tput_cell_bps"])
	}

	resume := fmt.Sprintf(`{"kind":"run","run":{"checkpoint":{"resume":%q}}}`, ck)
	waitState(t, ts, submit(t, ts, resume), StateDone)

	for name, body := range map[string]string{
		"semantic-override":    fmt.Sprintf(`{"kind":"run","run":{"overrides":{"seed":99},"checkpoint":{"resume":%q}}}`, ck),
		"resume-plus-preset":   fmt.Sprintf(`{"kind":"run","run":{"preset":"smoke","checkpoint":{"resume":%q}}}`, ck),
		"reps-with-checkpoint": fmt.Sprintf(`{"kind":"run","run":{"preset":"smoke","reps":2,"checkpoint":{"path":%q,"every":10}}}`, ck),
		"path-without-every":   fmt.Sprintf(`{"kind":"run","run":{"preset":"smoke","checkpoint":{"path":%q}}}`, ck),
	} {
		if code, resp := post(t, ts.URL+"/v1/jobs", body); code != http.StatusBadRequest {
			t.Errorf("%s: got %d (%s), want 400", name, code, resp)
		}
	}
}

func TestReadyz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := get(t, ts.URL+"/v1/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz = %d: %s", code, body)
	}
	var st struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queue_depth"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ready" || st.QueueDepth != 16 {
		t.Fatalf("readyz body = %s", body)
	}
}

func TestReadyzAfterClose(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	code, body := get(t, ts.URL+"/v1/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "shutting-down") {
		t.Fatalf("readyz after Close = %d: %s", code, body)
	}
	// Liveness stays green while draining: the process is still serving.
	if code, _ := get(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after Close = %d", code)
	}
}

// TestCreateJobRepliesQueued pins the submission reply to the job's state
// at enqueue time. Each job goes to an idle single-worker server, so the
// worker is parked on the queue and may start the job before the handler
// writes its 202; the reply must still say queued (the submit helper
// checks it), never running.
func TestCreateJobRepliesQueued(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for i := 0; i < 50; i++ {
		id := submit(t, ts, quickRunSpec)
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s settled as %s (error %q), want done", id, st.State, st.Error)
		}
	}
}

// TestChaosPanicFailsJobNotServer injects a worker panic and checks the
// containment contract: the job settles as failed with the panic message,
// and the server keeps serving — the next job on the same (single) worker
// completes normally.
func TestChaosPanicFailsJobNotServer(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, EnableChaos: true})
	id := submit(t, ts, `{"kind":"run","run":{"preset":"smoke","overrides":{"sim_time":3,"data_users":2}},"chaos":{"mode":"panic"}}`)
	st := waitTerminal(t, ts, id)
	if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("chaos job settled as %s (error %q), want failed with a panic message", st.State, st.Error)
	}
	if code, _ := get(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
		t.Fatal("server unhealthy after a worker panic")
	}
	next := submit(t, ts, quickRunSpec)
	if st := waitTerminal(t, ts, next); st.State != StateDone {
		t.Fatalf("job after the panic settled as %s (error %q), want done", st.State, st.Error)
	}
}

// TestChaosHangHitsDeadline submits a job that blocks forever under a short
// deadline: it must settle as failed with a deadline error, not hang the
// worker or count as cancelled.
func TestChaosHangHitsDeadline(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, EnableChaos: true})
	id := submit(t, ts, `{"kind":"run","run":{"preset":"smoke"},"chaos":{"mode":"hang"},"deadline_sec":0.2}`)
	st := waitTerminal(t, ts, id)
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("hung job settled as %s (error %q), want failed with a deadline error", st.State, st.Error)
	}
	// The worker is free again.
	next := submit(t, ts, quickRunSpec)
	if st := waitTerminal(t, ts, next); st.State != StateDone {
		t.Fatalf("job after the hang settled as %s, want done", st.State)
	}
}

func TestChaosRejectedWhenDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := post(t, ts.URL+"/v1/jobs", `{"kind":"run","run":{"preset":"smoke"},"chaos":{"mode":"panic"}}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "chaos injection is disabled") {
		t.Fatalf("chaos on a chaos-disabled server = %d: %s", code, body)
	}
	_, ts2 := newTestServer(t, Options{EnableChaos: true})
	code, body = post(t, ts2.URL+"/v1/jobs", `{"kind":"run","run":{"preset":"smoke"},"chaos":{"mode":"frob"}}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "unknown chaos mode") {
		t.Fatalf("bad chaos mode = %d: %s", code, body)
	}
}

// TestRetriesExhaustAndCount drives the retry loop through a always-failing
// job (a panic fires on every attempt) and checks the attempt accounting
// and that the backoff is bounded.
func TestRetriesExhaustAndCount(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, EnableChaos: true, RetryBaseDelay: time.Millisecond})
	id := submit(t, ts, `{"kind":"run","run":{"preset":"smoke"},"chaos":{"mode":"panic"},"retries":2}`)
	st := waitTerminal(t, ts, id)
	if st.State != StateFailed {
		t.Fatalf("job settled as %s, want failed", st.State)
	}
	if st.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", st.Attempts)
	}
}

// TestDeadlineNotRetried checks that a deadline expiry consumes no retry
// budget: retrying a job that ran out of time would only run out of time
// again.
func TestDeadlineNotRetried(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, EnableChaos: true, RetryBaseDelay: time.Millisecond})
	id := submit(t, ts, `{"kind":"run","run":{"preset":"smoke"},"chaos":{"mode":"hang"},"deadline_sec":0.1,"retries":5}`)
	st := waitTerminal(t, ts, id)
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("job settled as %s (error %q), want a deadline failure", st.State, st.Error)
	}
	if st.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (deadlines are not retried)", st.Attempts)
	}
}

func TestSubmitRejectsBadHardeningFields(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, spec := range map[string]string{
		"negative deadline": `{"kind":"run","run":{"preset":"smoke"},"deadline_sec":-1}`,
		"negative retries":  `{"kind":"run","run":{"preset":"smoke"},"retries":-2}`,
	} {
		if code, body := post(t, ts.URL+"/v1/jobs", spec); code != http.StatusBadRequest {
			t.Errorf("%s: got %d: %s", name, code, body)
		}
	}
}

// TestRunJobSurfacesFallbackWarning runs a scenario whose per-cell problems
// blow a one-node solve budget and checks the job result carries the
// greedy-fallback warning.
func TestRunJobSurfacesFallbackWarning(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submit(t, ts, `{"kind":"run","run":{"preset":"smoke","overrides":{"sim_time":4,"data_users":30,"node_budget":1}}}`)
	st := waitTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("job settled as %s (error %q), want done", st.State, st.Error)
	}
	found := false
	for _, w := range st.Warnings {
		if strings.Contains(w, "greedy fallback") {
			found = true
		}
	}
	if !found {
		t.Fatalf("warnings = %v, want a greedy-fallback warning", st.Warnings)
	}
}

// waitTerminal polls until the job settles, whatever the outcome.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := jobStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
