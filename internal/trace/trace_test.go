package trace

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func sample(i int) Record {
	return Record{
		Frame: i, TimeS: float64(i) * 0.02, Cell: i % 3,
		Offered: 2, Admitted: 1, GrantedRatio: 4,
		Completed: 1, DelaySumS: 0.25,
		QueueLen: 1, ActiveBursts: 2, Load: 0.75, Solve: SolveOK,
	}
}

func TestRecorderBuffersAndFlushes(t *testing.T) {
	mem := &Memory{}
	r := NewRecorder(mem, 0)
	if r.every != 1 {
		t.Fatalf("every normalised to %d, want 1", r.every)
	}
	n := ringCapacity + 7
	for i := 0; i < n; i++ {
		r.Emit(sample(i))
	}
	// The ring flushed exactly once (when full); the tail is still buffered.
	if len(mem.Records) != ringCapacity {
		t.Fatalf("before Flush: sink has %d records, want %d", len(mem.Records), ringCapacity)
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(mem.Records) != n {
		t.Fatalf("after Flush: sink has %d records, want %d", len(mem.Records), n)
	}
	for i, rec := range mem.Records {
		if rec != sample(i) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, sample(i))
		}
	}
}

func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(&Memory{}, 25)
	for _, tc := range []struct {
		frame int
		want  bool
	}{{0, true}, {1, false}, {24, false}, {25, true}, {50, true}} {
		if got := r.Sampled(tc.frame); got != tc.want {
			t.Errorf("Sampled(%d) = %v, want %v", tc.frame, got, tc.want)
		}
	}
}

type failSink struct{ calls int }

func (f *failSink) Write([]Record) error {
	f.calls++
	return errors.New("disk full")
}

func TestRecorderStickyError(t *testing.T) {
	sink := &failSink{}
	r := NewRecorder(sink, 1)
	for i := 0; i < 3*ringCapacity; i++ {
		r.Emit(sample(i))
	}
	if err := r.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Flush error = %v, want the sink failure", err)
	}
	if sink.calls != 1 {
		t.Fatalf("sink written %d times after failure, want 1 (sticky error)", sink.calls)
	}
	// A second Flush reports the same error.
	if err := r.Flush(); err == nil {
		t.Fatal("second Flush lost the sticky error")
	}
}

func TestCSVSink(t *testing.T) {
	var sb strings.Builder
	s := NewCSV(&sb)
	if err := s.Write([]Record{sample(0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Write([]Record{sample(1)}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), sb.String())
	}
	wantHead := strings.Join(Columns(), ",")
	if lines[0] != wantHead {
		t.Fatalf("header = %q, want %q", lines[0], wantHead)
	}
	if lines[1] != "0,0,0,2,1,4,1,0.25,1,2,0.75,0,0,ok" {
		t.Fatalf("row = %q", lines[1])
	}
	if cols := strings.Split(lines[2], ","); len(cols) != len(Columns()) {
		t.Fatalf("row has %d columns, want %d", len(cols), len(Columns()))
	}
}

func TestJSONLSink(t *testing.T) {
	var sb strings.Builder
	if err := NewJSONL(&sb).Write([]Record{sample(3)}); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSuffix(sb.String(), "\n")
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("invalid JSON %q: %v", line, err)
	}
	if len(got) != len(Columns()) {
		t.Fatalf("object has %d fields, want %d: %q", len(got), len(Columns()), line)
	}
	for _, tc := range []struct {
		key  string
		want any
	}{
		{"frame", 3.0}, {"time_s", 0.06}, {"cell", 0.0},
		{"delay_sum_s", 0.25}, {"solve", "ok"},
	} {
		if got[tc.key] != tc.want {
			t.Errorf("%s = %v, want %v", tc.key, got[tc.key], tc.want)
		}
	}
}

// TestJSONLMatchesCSV: each JSONL line carries its CSV row's values, under
// the Columns names, in Columns order.
func TestJSONLMatchesCSV(t *testing.T) {
	recs := []Record{sample(0), sample(7), {
		Frame: 1 << 40, TimeS: 0.1 + 0.2, Cell: 1026, Offered: -1, DelaySumS: 1e-300,
		Load: 12345.678e22, Down: 1, Spill: 9, Solve: "fallback",
	}}
	var csvOut, jsonlOut strings.Builder
	if err := NewCSV(&csvOut).Write(recs); err != nil {
		t.Fatal(err)
	}
	if err := NewJSONL(&jsonlOut).Write(recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(csvOut.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(jsonlOut.String(), "\n"), "\n")
	if len(rows) != len(recs)+1 || len(lines) != len(recs) {
		t.Fatalf("%d CSV rows and %d JSONL lines for %d records", len(rows), len(lines), len(recs))
	}
	for i, line := range lines {
		dec := json.NewDecoder(strings.NewReader(line))
		dec.UseNumber()
		if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
			t.Fatalf("line %d %q: opening token %v (%v)", i, line, tok, err)
		}
		var keys, values []string
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatalf("line %d %q: %v", i, line, err)
			}
			val, err := dec.Token()
			if err != nil {
				t.Fatalf("line %d %q: %v", i, line, err)
			}
			keys = append(keys, key.(string))
			values = append(values, fmt.Sprint(val))
		}
		if !slices.Equal(keys, Columns()) {
			t.Errorf("line %d keys %v, want %v", i, keys, Columns())
		}
		if !slices.Equal(values, rows[i+1]) {
			t.Errorf("line %d values %v, want the CSV row %v", i, values, rows[i+1])
		}
	}
}

func TestAppendRowMatchesColumns(t *testing.T) {
	row := sample(0).AppendRow(nil)
	if len(row) != len(Columns()) {
		t.Fatalf("AppendRow produced %d cells for %d columns", len(row), len(Columns()))
	}
}
