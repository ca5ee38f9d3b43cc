package replay

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"jabasd/internal/core"
	"jabasd/internal/mac"
	"jabasd/internal/measurement"
)

func testHeader() Header {
	return Header{
		Scheduler:    "jaba-sd",
		Objective:    core.DefaultObjective(),
		MaxRatio:     16,
		MAC:          mac.DefaultConfig(),
		FrameLengthS: 0.02,
		Seed:         7,
	}
}

// writeTrace records a small solve trace: two cells of one frame and an
// empty cell of the next.
func writeTrace(t *testing.T) ([]byte, []*Problem) {
	t.Helper()
	reqs := []core.Request{
		{UserID: 3, SizeBits: 2.5e4, WaitingTime: 0.04, AvgThroughput: 0.5, MaxRatio: 16},
		{UserID: 9, SizeBits: 1e5, WaitingTime: 2.5, SetupDelay: 0.1, Priority: 0.5, AvgThroughput: 0.125, MaxRatio: 8},
	}
	region := measurement.Region{Coeff: [][]float64{{0.25, 1.5}, {0.125, 0.0625}}, Bound: []float64{10, 12.5}, Cells: []int{0, 4}}
	problems := []*Problem{
		CopyProblem(5, 0.1, 0, reqs, region, []int{16, 3}),
		CopyProblem(5, 0.1, 4, reqs[:1], measurement.Region{Coeff: [][]float64{{2}}, Bound: []float64{9}, Cells: []int{4}}, []int{4}),
		CopyProblem(6, 0.12, 1, nil, measurement.Region{}, nil),
	}
	// CopyProblem must copy out of the caller's buffers.
	reqs[0].UserID, region.Coeff[0][0] = -1, -1

	var buf bytes.Buffer
	rec := NewRecorder(&buf, testHeader())
	for _, p := range problems {
		rec.Emit(p)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), problems
}

func TestTraceRoundTrip(t *testing.T) {
	data, want := writeTrace(t)
	if n := bytes.Count(data, []byte("\n")); n != 1+len(want) {
		t.Fatalf("trace has %d lines, want a header and %d problems", n, len(want))
	}
	hdr, got, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	wantHdr := testHeader()
	wantHdr.Format = Format
	if hdr != wantHdr {
		t.Errorf("header %+v, want %+v", hdr, wantHdr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read problems %+v, want %+v", got, want)
	}
	if got[0].Requests[0].UserID != 3 || got[0].Region.Coeff[0][0] != 0.25 {
		t.Error("CopyProblem aliased the caller's buffers")
	}

	// A recorder that records nothing writes nothing.
	var empty bytes.Buffer
	if NewRecorder(&empty, testHeader()).Err() != nil || empty.Len() != 0 {
		t.Errorf("an unused recorder wrote %q", empty.String())
	}
}

func TestReadTraceRejectsTruncatedAndCorrupt(t *testing.T) {
	data, _ := writeTrace(t)
	// A cut inside a line is an error; a cut that leaves only whole lines,
	// with or without the last newline, is a shorter, valid trace. Neither
	// may panic.
	for n := 0; n < len(data); n++ {
		_, _, err := ReadTrace(bytes.NewReader(data[:n]))
		whole := n > 0 && (data[n-1] == '\n' || data[n] == '\n')
		if whole != (err == nil) {
			t.Errorf("trace cut at byte %d of %d: error %v", n, len(data), err)
		}
	}

	header, _, _ := strings.Cut(string(data), "\n")
	for name, trace := range map[string]string{
		"empty":           "",
		"blank header":    "\n",
		"header not JSON": "jabasd\n",
		"wrong format":    strings.Replace(header, Format, "jabasd-solve-trace/v0", 1) + "\n",
		"problem not JSON": header + "\n" +
			`{"frame":1,"cell":0,"requests":[{"UserID":1}],"ratios":[1]` + "\n",
		"ratio count":  header + "\n" + `{"frame":1,"cell":0,"requests":[{"UserID":1}],"ratios":[1,2]}` + "\n",
		"wrong types":  header + "\n" + `{"frame":"one","cell":0}` + "\n",
		"binary junk":  header + "\n" + "\x00\xff\xfe{[" + "\n",
		"header array": "[]\n",
	} {
		if _, _, err := ReadTrace(strings.NewReader(trace)); err == nil {
			t.Errorf("%s: ReadTrace accepted %q", name, trace)
		}
	}
}
