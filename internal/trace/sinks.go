package trace

import (
	"io"
	"strconv"
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
// Columns field names, values as JSON numbers/strings. Handy for piping
// into jq or a dataframe loader without a CSV parser.
type JSONLSink struct {
	w io.Writer
}

// NewJSONL creates a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Write implements Sink.
func (s *JSONLSink) Write(records []Record) error {
	var sb strings.Builder
	for _, r := range records {
		sb.WriteString(`{"frame":`)
		sb.WriteString(itoa(r.Frame))
		sb.WriteString(`,"time_s":`)
		sb.WriteString(formatFloat(r.TimeS))
		sb.WriteString(`,"cell":`)
		sb.WriteString(itoa(r.Cell))
		sb.WriteString(`,"offered":`)
		sb.WriteString(itoa(r.Offered))
		sb.WriteString(`,"admitted":`)
		sb.WriteString(itoa(r.Admitted))
		sb.WriteString(`,"granted_ratio":`)
		sb.WriteString(itoa(r.GrantedRatio))
		sb.WriteString(`,"completed":`)
		sb.WriteString(itoa(r.Completed))
		sb.WriteString(`,"delay_sum_s":`)
		sb.WriteString(formatFloat(r.DelaySumS))
		sb.WriteString(`,"queue_len":`)
		sb.WriteString(itoa(r.QueueLen))
		sb.WriteString(`,"active_bursts":`)
		sb.WriteString(itoa(r.ActiveBursts))
		sb.WriteString(`,"load":`)
		sb.WriteString(formatFloat(r.Load))
		sb.WriteString(`,"down":`)
		sb.WriteString(itoa(r.Down))
		sb.WriteString(`,"spill":`)
		sb.WriteString(itoa(r.Spill))
		sb.WriteString(`,"solve":"`)
		sb.WriteString(r.Solve) // solve statuses never need JSON escaping
		sb.WriteString("\"}\n")
	}
	_, err := io.WriteString(s.w, sb.String())
	return err
}

func itoa(n int) string { return strconv.Itoa(n) }
