// Package replay records and re-solves the admission layer's scheduling
// problems. The engine can stream every (frame, cell) problem it solves —
// the gathered requests, the admissible region and the ratios the
// scheduler assigned — into a JSON-Lines solve trace. The trace is a
// complete, physics-free description of the admission decisions: replaying
// it under a different scheduler or objective answers "what would the
// other policy have granted against the exact same offered load and radio
// conditions?" without re-simulating mobility, fading or power control.
//
// The counterfactual is one-sided by construction: the recorded regions
// embed the loads the ORIGINAL policy's grants produced, so a replayed
// policy's decisions do not feed back into later frames. That is exactly
// the paper's per-frame comparison setting — each frame's admissible
// region is a measurement input, and two schedulers are compared on the
// same measurements.
package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"jabasd/internal/core"
	"jabasd/internal/mac"
	"jabasd/internal/measurement"
	"jabasd/internal/report"
)

// Format identifies the solve-trace encoding: a header line with this
// format tag, then one Problem object per line.
const Format = "jabasd-solve-trace/v1"

// Header is the trace's first line: the scheduling context every recorded
// problem was solved under, so a replay can reproduce the original
// assignments exactly (same scheduler, objective, ratio cap and MAC
// timers) or deliberately vary one axis.
type Header struct {
	Format       string         `json:"format"`
	Scheduler    string         `json:"scheduler"`
	Objective    core.Objective `json:"objective"`
	MaxRatio     int            `json:"max_ratio"`
	MAC          mac.Config     `json:"mac"`
	FrameLengthS float64        `json:"frame_length_s"`
	Seed         uint64         `json:"seed"`
}

// Problem is one recorded (frame, cell) scheduling problem plus the ratios
// the recording run's scheduler assigned (aligned with Requests; zero means
// not granted).
type Problem struct {
	Frame    int                `json:"frame"`
	TimeS    float64            `json:"time_s"`
	Cell     int                `json:"cell"`
	Requests []core.Request     `json:"requests"`
	Region   measurement.Region `json:"region"`
	Ratios   []int              `json:"ratios"`
}

// CopyProblem deep-copies a problem out of the engine's reused per-frame
// scratch (request slices, region rows and assignment buffers are all
// recycled across cells), so the recorder can hold it past the solve.
func CopyProblem(frame int, timeS float64, cell int, reqs []core.Request, region measurement.Region, ratios []int) *Problem {
	p := &Problem{
		Frame:    frame,
		TimeS:    timeS,
		Cell:     cell,
		Requests: append([]core.Request(nil), reqs...),
		Ratios:   append([]int{}, ratios...),
		Region: measurement.Region{
			Coeff: make([][]float64, len(region.Coeff)),
			Bound: append([]float64(nil), region.Bound...),
			Cells: append([]int(nil), region.Cells...),
		},
	}
	for i, row := range region.Coeff {
		p.Region.Coeff[i] = append([]float64(nil), row...)
	}
	return p
}

// Recorder streams a solve trace: the header on creation, then one line
// per emitted problem. Emission errors are sticky and surfaced by Err, so
// the hot solve path never has to check a return value.
type Recorder struct {
	w    io.Writer
	err  error
	head bool
	hdr  Header
}

// NewRecorder creates a recorder writing to w. The header is written
// lazily, before the first problem, so constructing a recorder that never
// records costs nothing.
func NewRecorder(w io.Writer, hdr Header) *Recorder {
	hdr.Format = Format
	return &Recorder{w: w, hdr: hdr}
}

// Emit appends one problem line.
func (r *Recorder) Emit(p *Problem) {
	if r.err != nil {
		return
	}
	if !r.head {
		r.head = true
		if r.err = r.writeJSONLine(r.hdr); r.err != nil {
			return
		}
	}
	r.err = r.writeJSONLine(p)
}

func (r *Recorder) writeJSONLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("replay: encoding solve trace: %w", err)
	}
	b = append(b, '\n')
	if _, err := r.w.Write(b); err != nil {
		return fmt.Errorf("replay: writing solve trace: %w", err)
	}
	return nil
}

// Err returns the first emission error, if any.
func (r *Recorder) Err() error { return r.err }

// ReadTrace parses a solve trace: the header line, then every problem in
// recorded order.
func ReadTrace(rd io.Reader) (Header, []*Problem, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20) // region rows scale with cells
	var hdr Header
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return hdr, nil, fmt.Errorf("replay: reading solve trace: %w", err)
		}
		return hdr, nil, fmt.Errorf("replay: solve trace is empty")
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return hdr, nil, fmt.Errorf("replay: solve trace header does not parse: %w", err)
	}
	if hdr.Format != Format {
		return hdr, nil, fmt.Errorf("replay: unsupported solve-trace format %q (this build reads %q)", hdr.Format, Format)
	}
	var problems []*Problem
	for line := 2; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		p := &Problem{}
		if err := json.Unmarshal(sc.Bytes(), p); err != nil {
			return hdr, nil, fmt.Errorf("replay: solve trace line %d does not parse: %w", line, err)
		}
		if len(p.Ratios) != len(p.Requests) {
			return hdr, nil, fmt.Errorf("replay: solve trace line %d: %d ratios for %d requests", line, len(p.Ratios), len(p.Requests))
		}
		problems = append(problems, p)
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, fmt.Errorf("replay: reading solve trace: %w", err)
	}
	return hdr, problems, nil
}

// Resolve re-solves every recorded problem with the given scheduler and
// objective, against the recorded regions and requests. Stateful schedulers
// are reseeded per (frame, cell) exactly like the engine's snapshot mode,
// so a replay is deterministic regardless of problem order. The returned
// assignments align with problems.
func Resolve(hdr Header, problems []*Problem, sched core.Scheduler, obj core.Objective) ([]core.Assignment, error) {
	out := make([]core.Assignment, len(problems))
	for i, p := range problems {
		if cs, ok := sched.(core.CellSeeder); ok {
			cs.SeedCell(uint64(p.Frame), uint64(p.Cell))
		}
		a, err := sched.Schedule(core.Problem{
			Requests:  p.Requests,
			Region:    p.Region,
			MaxRatio:  hdr.MaxRatio,
			Objective: obj,
			MAC:       &hdr.MAC,
		})
		if err != nil {
			return nil, fmt.Errorf("replay: frame %d cell %d: %w", p.Frame, p.Cell, err)
		}
		out[i] = a
	}
	return out, nil
}

// WriteGrantsCSV writes one row per recorded request with the ratio the
// given assignments grant it — zero rows included, so two replays of the
// same trace produce line-aligned, directly diffable files.
func WriteGrantsCSV(w io.Writer, problems []*Problem, assignments []core.Assignment) error {
	if len(assignments) != len(problems) {
		return fmt.Errorf("replay: %d assignments for %d problems", len(assignments), len(problems))
	}
	var sb bytes.Buffer
	sb.WriteString(report.CSVLine([]string{"frame", "cell", "user", "ratio"}))
	row := make([]string, 4)
	for i, p := range problems {
		ratios := assignments[i].Ratios
		for j, req := range p.Requests {
			m := 0
			if j < len(ratios) {
				m = ratios[j]
			}
			row[0] = strconv.Itoa(p.Frame)
			row[1] = strconv.Itoa(p.Cell)
			row[2] = strconv.Itoa(req.UserID)
			row[3] = strconv.Itoa(m)
			sb.WriteString(report.CSVLine(row))
		}
	}
	_, err := w.Write(sb.Bytes())
	return err
}
