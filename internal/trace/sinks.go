package trace

import (
	"io"
	"strings"

	"jabasd/internal/report"
)

// Memory is an in-memory sink: it appends copies of every batch to Records.
// Tests and the transient experiments (E11-E14) consume it directly.
type Memory struct {
	Records []Record
}

// Write implements Sink.
func (m *Memory) Write(records []Record) error {
	m.Records = append(m.Records, records...)
	return nil
}

// CSVSink streams records as CSV rows (report.CSVLine quoting, Columns
// header emitted before the first record), so a trace file diffs cleanly
// against the golden copies under testdata/golden.
type CSVSink struct {
	w          io.Writer
	wroteHead  bool
	rowScratch []string
}

// NewCSV creates a CSV sink writing to w. The caller owns w (and closes it
// after the run flushes).
func NewCSV(w io.Writer) *CSVSink {
	return &CSVSink{w: w, rowScratch: make([]string, 0, len(Columns()))}
}

// Write implements Sink.
func (s *CSVSink) Write(records []Record) error {
	var sb strings.Builder
	if !s.wroteHead {
		sb.WriteString(report.CSVLine(Columns()))
		s.wroteHead = true
	}
	for _, rec := range records {
		s.rowScratch = rec.AppendRow(s.rowScratch[:0])
		sb.WriteString(report.CSVLine(s.rowScratch))
	}
	_, err := io.WriteString(s.w, sb.String())
	return err
}

// JSONLSink streams records as JSON Lines: one object per record with the
// Columns field names and AppendRow's values, as JSON numbers except the
// solve status, the one string. Handy for piping into jq or a dataframe
// loader without a CSV parser.
type JSONLSink struct {
	w          io.Writer
	rowScratch []string
}

// NewJSONL creates a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w, rowScratch: make([]string, 0, len(Columns()))}
}

// Write implements Sink.
func (s *JSONLSink) Write(records []Record) error {
	cols := Columns()
	var sb strings.Builder
	for _, rec := range records {
		s.rowScratch = rec.AppendRow(s.rowScratch[:0])
		sep := byte('{')
		for i, v := range s.rowScratch {
			sb.WriteByte(sep)
			sep = ','
			sb.WriteByte('"')
			sb.WriteString(cols[i])
			sb.WriteString(`":`)
			if cols[i] == "solve" { // solve statuses never need JSON escaping
				sb.WriteByte('"')
				sb.WriteString(v)
				sb.WriteByte('"')
			} else {
				sb.WriteString(v)
			}
		}
		sb.WriteString("}\n")
	}
	_, err := io.WriteString(s.w, sb.String())
	return err
}
