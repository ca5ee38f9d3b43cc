package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"jabasd/internal/core"
	"jabasd/internal/mac"
	"jabasd/internal/measurement"
	"jabasd/internal/replay"
)

// readmeOracleBody is the README's oracle example.
const readmeOracleBody = `{
  "requests": [
    {"UserID": 1, "SizeBits": 1e6, "WaitingTime": 0.5, "AvgThroughput": 0.5, "MaxRatio": 8},
    {"UserID": 2, "SizeBits": 1e6, "WaitingTime": 4.0, "AvgThroughput": 0.25, "MaxRatio": 8}
  ],
  "region": {"Coeff": [[2, 3]], "Bound": [10], "Cells": [0]},
  "max_ratio": 8,
  "objective": {"Kind": "j2", "Lambda": 0.05, "RateScale": 16}
}`

// ciOracleBody is the server-smoke CI job's oracle call.
const ciOracleBody = `{
  "requests": [{"UserID": 1, "SizeBits": 1e6, "WaitingTime": 0.5,
                "AvgThroughput": 0.5, "MaxRatio": 8}],
  "region": {"Coeff": [[2]], "Bound": [10], "Cells": [0]},
  "max_ratio": 8,
  "objective": {"Kind": "j1"}
}`

// decodeEdgeBodies are the parity edge cases: trailing bytes, key folding,
// unknown keys, duplicate keys, nulls, objective kinds, integer and float
// range, string escapes and malformed input.
var decodeEdgeBodies = []string{
	// Only the first value is read.
	`{"max_ratio":3} trailing garbage`, `{"max_ratio":1}{"max_ratio":2}`, `null`, `null garbage`, `nullx`,
	`nul`, ``, " \t\r\n ", `[]`, `1`, `1x`, `"x"`, `true`, `{`, `{"seed":1`, `{"seed"`, `{"seed":`,
	// Keys fold like encoding/json's, non-ASCII runes included.
	`{"Requests":[{"userid":1,"SIZEBITS":2}],"REGION":{"coeff":[[1]],"bOuNd":[2]},"MAX_RATIO":2}`,
	"{\"ſcheduler\":\"fcfs\",\"objective\":{\"Kind\":\"j1\"}}",
	`{"ſcheduler":"fcfs","objective":{"Kind":"j1"},"seed":3}`,
	`{"objective":{"\u212aind":"j1"}}`, "{\"objective\":{\"\u212aind\":\"j1\"}}", `{"\u0073eed":3}`,
	`{"max_ratio ":1,"maxratio":2,"max-ratio":3,"":4}`,
	"{\"sched\xffuler\":\"fcfs\"}",
	// Unknown keys are skipped with any nested value.
	`{"x":{"a":[1,{"b":null}],"c":"é\n"},"y":[true,false,null,-1.5e3,[[]],{}],"max_ratio":2}`,
	`{"requests":[{"Other":{"deep":[1,2,{"x":"y"}]},"UserID":4}]}`,
	// Duplicate keys: the last wins, repeated objects merge.
	`{"seed":1,"seed":2}`,
	`{"region":{"Coeff":[[1,2]]},"region":{"Bound":[3]}}`,
	`{"requests":[{"UserID":1,"SizeBits":5}],"requests":[{"UserID":2}]}`,
	`{"requests":[{"UserID":1},{"UserID":2},{"UserID":3}],"requests":[{"SizeBits":4}],"requests":[{},{},{},{}]}`,
	`{"mac":{"T2":1},"mac":{"T3":2}}`,
	`{"mac":{"T2":1},"mac":null,"mac":{"T3":2}}`,
	`{"requests":[{},{},{}],"requests":[],"requests":[{"UserID":9}]}`,
	`{"region":{"Bound":[1,2,3,4,5]},"region":{"Bound":[4]},"region":{"Bound":[5,null,null,null,null,null,null,null,null]}}`,
	`{"region":{"Coeff":[[1,2,3],[4]]},"region":{"Coeff":[[9]]},"region":{"Coeff":[[9,null,null],null,[]]}}`,
	`{"objective":{"Kind":"j2","Lambda":1},"objective":{"RateScale":2}}`,
	// null for slices, the mac pointer, structs and scalars.
	`{"requests":null,"region":null,"mac":null,"seed":null,"scheduler":null,"max_ratio":null,"objective":null}`,
	`{"region":{"Coeff":[null,[1]],"Bound":[null],"Cells":[null]}}`,
	`{"requests":[null,{"UserID":null,"SizeBits":null}]}`,
	`{"region":{"Coeff":null,"Bound":null,"Cells":null}}`,
	`{"objective":{"Kind":null}}`,
	`{"mac":{"T2":null}}`,
	// Kind goes through ObjectiveKind.UnmarshalJSON on the raw literal.
	`{"objective":{"Kind":0}}`, `{"objective":{"Kind":1}}`, `{"objective":{"Kind":2}}`,
	`{"objective":{"Kind":-0}}`, `{"objective":{"Kind":1.0}}`, `{"objective":{"Kind":"j1"}}`,
	`{"objective":{"Kind":"j2"}}`, `{"objective":{"Kind":"throughput"}}`,
	`{"objective":{"Kind":"delay-aware"}}`, `{"objective":{"Kind":"J1-throughput"}}`,
	`{"objective":{"Kind":"J2-delay-aware"}}`, `{"objective":{"Kind":"j1"}}`,
	`{"objective":{"Kind":"J1"}}`, `{"objective":{"Kind":{}}}`, `{"objective":{"Kind":[]}}`,
	`{"objective":{"Kind":true}}`, `{"objective":{"Kind": "j2" }}`,
	// Integer fields refuse fractions, exponents and out-of-range values.
	`{"max_ratio":1.0}`, `{"max_ratio":1e2}`, `{"max_ratio":9223372036854775807}`,
	`{"max_ratio":9223372036854775808}`, `{"max_ratio":-9223372036854775808}`,
	`{"max_ratio":-9223372036854775809}`, `{"max_ratio":-0}`, `{"max_ratio":"1"}`,
	`{"seed":-1}`, `{"seed":-0}`, `{"seed":0}`, `{"seed":18446744073709551615}`,
	`{"seed":18446744073709551616}`, `{"seed":1.5}`, `{"seed":true}`,
	`{"requests":[{"UserID":1.5}]}`, `{"requests":[{"MaxRatio":-2}]}`,
	`{"region":{"Cells":[1,2.0]}}`,
	// Floats.
	`{"objective":{"Lambda":1e400}}`, `{"objective":{"Lambda":-1e400}}`,
	`{"objective":{"Lambda":1e-400}}`, `{"objective":{"Lambda":"1"}}`,
	`{"objective":{"Lambda":-0.0,"RateScale":4.9e-324}}`,
	`{"requests":[{"SizeBits":1E+2,"WaitingTime":1e-2,"Priority":0.000001}]}`,
	`{"region":{"Bound":[1.7976931348623157e308,2e308]}}`,
	`{"objective":{"Lambda":12345678901234567890123456789012345678901234567890}}`,
	// Strings: escapes, surrogates, invalid UTF-8, control characters.
	`{"scheduler":"fcfs"}`, `{"scheduler":"\ud800"}`, `{"scheduler":"\ud83d\ude00"}`,
	`{"scheduler":"\udc00\ud800x"}`, `{"scheduler":"\ud800A"}`, `{"scheduler":"\ud800\\"}`,
	`{"scheduler":"\"\\\/\b\f\n\r\t"}`, "{\"scheduler\":\"\xff\xfe\"}", "{\"scheduler\":\"a\xe2\x82\"}",
	"{\"scheduler\":\"\xed\xa0\x80\"}", "{\"scheduler\":\"a\x01\"}", `{"scheduler":"\x"}`,
	`{"scheduler":"\u12"}`, `{"scheduler":"\u12g4"}`, `{"scheduler":"\'"}`, `{"scheduler":"fcfs}`,
	`{"scheduler":1}`, `{"scheduler":"jaba-sd"}`, `{"scheduler":"random","seed":7}`,
	// Syntax errors.
	`{"seed":01}`, `{"seed":1.}`, `{"seed":-}`, `{"seed":+1}`, `{"seed":.5}`, `{"seed":1e}`,
	`{"seed":1e+}`, `{,}`, `{"a":1,}`, `{"a" 1}`, `{"a":1 "b":2}`, `{a:1}`, `{"requests":[1,]}`,
	`{"requests":[,]}`, `{"region":{"Coeff":[[1],]}}`, `{"seed":tru}`, `{"seed":nulx}`,
	`{"x":tru}`, `{"x":[1 2]}`, `{"x":{"a"}}`, `{"x":NaN}`, `{"x":Infinity}`,
	"\xef\xbb\xbf{}", `{"requests":{}}`, `{"region":[]}`, `{"mac":[]}`, `{"mac":1}`, `{"mac":"x"}`,
	`{"requests":[[]]}`, `{"region":{"Coeff":[1]}}`, `{"region":{"Coeff":[[[1]]]}}`,
}

// nestedBody is a body whose unknown key holds n nested arrays, so the
// body nests n+1 deep.
func nestedBody(n int) string {
	return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
}

// reusedRequest returns a request that already holds data, within and
// beyond its slices' lengths, so that a decode into it shows how it reuses
// elements, capacity and the MAC pointee.
func reusedRequest() OracleRequest {
	reqs := make([]core.Request, 5)
	for i := range reqs {
		reqs[i] = core.Request{UserID: 100 + i, SizeBits: float64(i) + 0.5, WaitingTime: 3, SetupDelay: 1,
			Priority: 0.25, AvgThroughput: 0.75, MaxRatio: 7}
	}
	coeff := make([][]float64, 3)
	for i := range coeff {
		coeff[i] = []float64{float64(i) + 1.5, 2.5, 3.5, 4.5}[:2]
	}
	return OracleRequest{
		Scheduler: "fcfs",
		Seed:      7,
		Requests:  reqs[:2],
		Region: measurement.Region{
			Coeff: coeff[:1],
			Bound: []float64{11, 12, 13}[:1],
			Cells: []int{4, 5, 6}[:1],
		},
		MaxRatio:  9,
		Objective: core.Objective{Kind: core.ObjectiveDelayAware, Lambda: 0.5, RateScale: 8},
		MAC:       &mac.Config{T2: 1, T3: 2, D1: 0.5, D2: 0.75},
	}
}

// checkDecodeParity holds decodeOracleRequest, and the server's pooled
// decode, to encoding/json on body.
func checkDecodeParity(t *testing.T, body []byte) {
	t.Helper()
	for _, start := range []func() OracleRequest{func() OracleRequest { return OracleRequest{} }, reusedRequest} {
		want, got := start(), start()
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		gotErr := decodeOracleRequest(body, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("body %q: encoding/json error %v, decodeOracleRequest error %v", body, wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decoded\n%+v\nencoding/json\n%+v", body, got, want)
		}
	}

	// The server decodes into the memory of an earlier call, which must
	// read as a decode into a zero request.
	var fresh OracleRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&fresh)
	old := reusedRequest()
	sc := &oracleScratch{req: old, requests: old.Requests, coeff: old.Region.Coeff,
		bound: old.Region.Bound, cells: old.Region.Cells, mac: *old.MAC}
	sc.body.Write(body)
	gotErr := sc.decode()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: encoding/json error %v, pooled decode error %v", body, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(sc.req, fresh) {
		t.Fatalf("body %q: pooled decode\n%+v\nencoding/json\n%+v", body, sc.req, fresh)
	}
}

// traceBodies encodes the first n problems of the committed smoke solve
// trace as oracle bodies, the way the benchmark's load client does.
func traceBodies(t testing.TB, n int) [][]byte {
	t.Helper()
	f, err := os.Open("../../testdata/golden/solve-trace-smoke.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, problems, err := replay.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, p := range problems[:min(n, len(problems))] {
		body, err := json.Marshal(OracleRequest{Requests: p.Requests, Region: p.Region,
			MaxRatio: hdr.MaxRatio, Objective: hdr.Objective, MAC: &hdr.MAC})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// serveTestBodies are the oracle bodies the serve tests send.
func serveTestBodies(t testing.TB) [][]byte {
	t.Helper()
	problem := oracleProblem()
	bodies := [][]byte{[]byte(readmeOracleBody), []byte(ciOracleBody),
		[]byte(`{"requests":[],"max_ratio":0}`), []byte(`{"max_ratio":`)}
	for _, sched := range []string{"", "fcfs", "warp-drive"} {
		body, err := json.Marshal(OracleRequest{Scheduler: sched, Requests: problem.Requests,
			Region: problem.Region, MaxRatio: problem.MaxRatio, Objective: problem.Objective})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return append(bodies, nonFiniteBodies...)
}

// FuzzOracleDecode holds the hand-written oracle decoder to encoding/json:
// on every input both accept or both reject, and on acceptance they
// decode equal values, from a zero and from a reused request. Run it with
//
//	go test -run '^$' -fuzz '^FuzzOracleDecode$' -fuzztime 30s ./internal/serve
func FuzzOracleDecode(f *testing.F) {
	for _, b := range serveTestBodies(f) {
		f.Add(b)
	}
	for _, b := range traceBodies(f, 8) {
		f.Add(b)
	}
	for _, b := range decodeEdgeBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeParity(t, body)
	})
}

func TestOracleDecodeNestingLimit(t *testing.T) {
	// The top-level object is one level: 9999 arrays inside it reach
	// encoding/json's limit of 10000, one more exceeds it.
	for _, n := range []int{maxNesting - 1, maxNesting} {
		checkDecodeParity(t, []byte(nestedBody(n)))
	}
	if err := decodeOracleRequest([]byte(nestedBody(maxNesting)), new(OracleRequest)); err == nil {
		t.Error("a body nested past the limit decoded")
	}
}

// TestOracleFieldListsMatchStructs keeps the decoder's field lists in step
// with the structs: a field added to one of them must be decoded too.
func TestOracleFieldListsMatchStructs(t *testing.T) {
	for _, c := range []struct {
		v     any
		names []string
	}{
		{OracleRequest{}, oracleFields[:]},
		{core.Request{}, requestFields[:]},
		{measurement.Region{}, regionFields[:]},
		{core.Objective{}, objectiveFields[:]},
		{mac.Config{}, macFields[:]},
	} {
		typ := reflect.TypeOf(c.v)
		var names []string
		for i := range typ.NumField() {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			names = append(names, name)
		}
		if !reflect.DeepEqual(names, c.names) {
			t.Errorf("%s: JSON fields %v, decoder fields %v", typ, names, c.names)
		}
	}
}

func encodeWithJSON(t *testing.T, r OracleResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAppendOracleResponseMatchesEncoder(t *testing.T) {
	var responses []OracleResponse
	// Benchmark-style responses: the smoke trace's problems, scheduled.
	for _, body := range traceBodies(t, 64) {
		var req OracleRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		a, err := newOraclePool(1).schedule(req)
		if err != nil {
			t.Fatal(err)
		}
		responses = append(responses, OracleResponse{Ratios: a.Ratios, Objective: a.Objective,
			Scheduler: a.Scheduler, Served: a.Served(), TotalRatio: a.TotalRatio()})
	}
	for _, obj := range []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e20, 1e21,
		-1e21, 1.5e300, 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		2.27890625, 123456789.123, 1e-9, 1e-10, 1.2345e-100} {
		responses = append(responses, OracleResponse{Ratios: []int{5, 0, -1}, Objective: obj,
			Scheduler: "JABA-SD", Served: 1, TotalRatio: 4})
	}
	responses = append(responses, OracleResponse{}, OracleResponse{Ratios: []int{}})
	// Every byte, and the runes encoding/json treats specially, in the
	// scheduler name.
	for c := range 256 {
		responses = append(responses, OracleResponse{Scheduler: "a" + string([]byte{byte(c)}) + "b"})
	}
	for _, s := range []string{"\u2028", "\u2029", "é", "\U0001F600", "<&>", "\xe2\x82", "\xed\xa0\x80", "\x7f"} {
		responses = append(responses, OracleResponse{Scheduler: s})
	}
	for _, r := range responses {
		want := encodeWithJSON(t, r)
		if got := appendOracleResponse([]byte("prefix"), r); !bytes.Equal(got[len("prefix"):], want) {
			t.Errorf("response %+v: got %q, encoding/json %q", r, got[len("prefix"):], want)
		}
	}
}

func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"error":"encode response: `) {
		t.Errorf("unencodable value: %d %q, want 500 with the error envelope", rec.Code, rec.Body.String())
	}
}

// reuseBodies are oracle bodies whose shapes grow and shrink, so that each
// call decodes into memory an earlier call left bigger or smaller: 0 to 13
// requests and back, crossing JABASD's GreedyFallbackSize of 12; 1 to 3
// region rows; with and without mac; duplicate keys; null slices and mac.
func reuseBodies(t testing.TB) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	problem := func(n, rows int, withMAC bool) []byte {
		req := OracleRequest{MaxRatio: 16, Objective: core.DefaultObjective()}
		if n%3 == 0 {
			req.Objective = core.Objective{Kind: core.ObjectiveThroughput}
		}
		for i := range n {
			req.Requests = append(req.Requests, core.Request{UserID: i + 1, SizeBits: 1e5 + 9e5*rng.Float64(),
				WaitingTime: 15 * rng.Float64(), Priority: rng.Float64(), AvgThroughput: 0.05 + rng.Float64(),
				MaxRatio: 1 + rng.IntN(16)})
		}
		for r := range rows {
			row := make([]float64, n)
			for i := range row {
				row[i] = 0.01 + 3*rng.Float64()
			}
			req.Region.Coeff = append(req.Region.Coeff, row)
			req.Region.Bound = append(req.Region.Bound, 5+30*rng.Float64())
			req.Region.Cells = append(req.Region.Cells, r)
		}
		if withMAC {
			cfg := mac.DefaultConfig()
			req.MAC = &cfg
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	inner := func(b []byte) string { return string(b[1 : len(b)-1]) }
	var sizes []int
	for n := 0; n <= 13; n++ {
		sizes = append(sizes, n)
	}
	for n := 13; n >= 0; n-- {
		sizes = append(sizes, n)
	}
	var bodies [][]byte
	for k, n := range sizes {
		rows := 1 + k%3
		body := problem(n, rows, k%2 == 0)
		switch k % 4 {
		case 1:
			// A bigger decoy first: the real keys after it win.
			body = []byte("{" + inner(problem(n+3, rows+1, true)) + "," + inner(body) + "}")
		case 3:
			// Nulls before the real values, and a null mac after them.
			body = []byte(`{"mac":{"T2":3,"T3":4,"D1":0.2,"D2":0.5},"requests":null,"region":null,` +
				inner(body) + `,"mac":null}`)
		}
		bodies = append(bodies, body)
	}
	return append(bodies,
		[]byte(`{"requests":null,"region":{"Coeff":null,"Bound":null,"Cells":null},"mac":null,"max_ratio":4}`),
		[]byte(`{"requests":[{"UserID":1,"AvgThroughput":1,"MaxRatio":4}],"region":{"Coeff":null},"max_ratio":4}`))
}

// oracleWant is the answer encoding/json and a fresh JABA-SD instance give
// for a body: a status code and, for 200, the exact response bytes.
type oracleWant struct {
	code int
	body []byte
}

func wantOracle(t testing.TB, body []byte) oracleWant {
	t.Helper()
	var req OracleRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return oracleWant{code: http.StatusBadRequest}
	}
	a, err := core.NewJABASD().Schedule(core.Problem{Requests: req.Requests, Region: req.Region,
		MaxRatio: req.MaxRatio, Objective: req.Objective, MAC: req.MAC})
	if err != nil {
		return oracleWant{code: http.StatusBadRequest}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(OracleResponse{Ratios: a.Ratios, Objective: a.Objective,
		Scheduler: a.Scheduler, Served: a.Served(), TotalRatio: a.TotalRatio()}); err != nil {
		t.Fatal(err)
	}
	return oracleWant{code: http.StatusOK, body: buf.Bytes()}
}

// checkOracle posts body and compares the answer with want.
func checkOracle(url string, body []byte, want oracleWant) error {
	resp, err := http.Post(url+"/v1/oracle", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want.code || want.code == http.StatusOK && !bytes.Equal(got, want.body) {
		return fmt.Errorf("body %s:\ngot %d %s\nwant %d %s", body, resp.StatusCode, got, want.code, want.body)
	}
	return nil
}

// TestOracleReusesPooledMemorySafely sends problems that grow and shrink
// through one warm solver and one pooled scratch, in turn. Neither
// ilp.Solver nor the scheduler's ilpScratch reads a region row of an
// earlier call: the solver copies the rows it aliases at the start of
// every solve, and the scratch holds copies only.
func TestOracleReusesPooledMemorySafely(t *testing.T) {
	_, ts := newTestServer(t, Options{OracleWorkers: 1})
	bodies := reuseBodies(t)
	for pass := range 2 {
		for _, body := range bodies {
			if err := checkOracle(ts.URL, body, wantOracle(t, body)); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
		}
	}
}

// TestOracleReusesPooledMemoryConcurrently is the same check with calls
// in flight at once, for the race detector.
func TestOracleReusesPooledMemoryConcurrently(t *testing.T) {
	_, ts := newTestServer(t, Options{OracleWorkers: 2})
	bodies := reuseBodies(t)
	wants := make([]oracleWant, len(bodies))
	for i, body := range bodies {
		wants[i] = wantOracle(t, body)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range bodies {
				i := (k + 5*g) % len(bodies)
				if err := checkOracle(ts.URL, bodies[i], wants[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestOracleScratchPoolDropsLargeMemory checks that a benchmark-style call
// leaves a scratch that goes back to the pool, and that one small body
// decoding into many elements leaves a scratch that does not: later calls
// would otherwise clear all of its slices.
func TestOracleScratchPoolDropsLargeMemory(t *testing.T) {
	sc := new(oracleScratch)
	for _, body := range traceBodies(t, 64) {
		sc.body.Reset()
		sc.body.Write(body)
		if err := sc.decode(); err != nil {
			t.Fatal(err)
		}
		sc.out = appendOracleResponse(sc.out[:0], OracleResponse{Ratios: make([]int, len(sc.req.Requests))})
	}
	if n := sc.size(); n > maxPooledScratch {
		t.Fatalf("benchmark-style scratch holds %d bytes, over the pooling bound %d", n, maxPooledScratch)
	}

	big := new(oracleScratch)
	big.body.WriteString(`{"requests":[{}` + strings.Repeat(`,{}`, 20000) + `]}`)
	if big.body.Len() > maxOracleBody {
		t.Fatalf("body of %d bytes is over the oracle's limit", big.body.Len())
	}
	if err := big.decode(); err != nil {
		t.Fatal(err)
	}
	if n := big.size(); n <= maxPooledScratch {
		t.Fatalf("20001 decoded requests hold only %d bytes", n)
	}
	putOracleScratch(big)
	for range 64 {
		if getOracleScratch() == big {
			t.Fatal("a scratch over the pooling bound went back to the pool")
		}
	}
}

// TestOracleBodyLimit checks that a body over maxOracleBody is refused
// with 413, while one at the limit, trailing bytes included, is read.
func TestOracleBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	head := []byte(ciOracleBody)
	for _, tc := range []struct {
		size int
		code int
	}{
		{maxOracleBody, http.StatusOK},
		{maxOracleBody + 1, http.StatusRequestEntityTooLarge},
	} {
		body := append(bytes.Clone(head), bytes.Repeat([]byte(" x"), (tc.size-len(head)+1)/2)...)[:tc.size]
		resp, err := http.Post(ts.URL+"/v1/oracle", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%d-byte body: got %d %s, want %d", tc.size, resp.StatusCode, got, tc.code)
		}
		if tc.code != http.StatusOK && !bytes.Contains(got, []byte(`"error":"decode oracle request: `)) {
			t.Fatalf("%d-byte body: got %s, want the error envelope", tc.size, got)
		}
	}
}

// BenchmarkOracleDecode decodes benchmark-style bodies with the wire
// decoder, in pooled memory, and with encoding/json.
func BenchmarkOracleDecode(b *testing.B) {
	bodies := traceBodies(b, 64)
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		sc := new(oracleScratch)
		for i := 0; i < b.N; i++ {
			sc.body.Reset()
			sc.body.Write(bodies[i%len(bodies)])
			if err := sc.decode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req OracleRequest
			if err := json.NewDecoder(bytes.NewReader(bodies[i%len(bodies)])).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
