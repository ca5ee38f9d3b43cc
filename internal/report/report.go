// Package report renders experiment results as aligned ASCII tables, CSV
// and JSON — the formats the experiment harness (cmd/jabaexp,
// bench_test.go), the sweep harness (cmd/jabasweep) and the telemetry
// sinks (internal/trace) emit.
//
// The Table type is deliberately string-typed: every cell is formatted
// exactly once (formatCell), and the ASCII, CSV and JSON writers render
// those same strings, so the three formats can never disagree about a
// value and byte-for-byte determinism checks can diff any of them.
// CSVLine is exported for callers that stream rows incrementally and need
// each row identical to what a whole-table WriteCSV would have produced.
// OpenSinks opens the commands' output files all-or-nothing.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-oriented results table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v semantics, floats with
// four significant digits.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = formatCell(v)
	}
	t.Rows = append(t.Rows, row)
}

func formatCell(v interface{}) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', 4, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', 4, 64)
	case string:
		return x
	default:
		return fmt.Sprintf("%v", v)
	}
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// WriteASCII renders the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("# " + t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			// The last cell is not padded, so no line ends in spaces.
			if i < len(widths) && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// CSVLine renders one CSV record with a trailing newline; cells containing
// commas, quotes or newlines are quoted. It is exported so callers that
// stream results row by row (cmd/jabasweep) emit exactly what WriteCSV would.
func CSVLine(cells []string) string {
	var sb strings.Builder
	for i, c := range cells {
		if i > 0 {
			sb.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		sb.WriteString(c)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// WriteCSV renders the table as comma-separated values with a header row.
// Cells containing commas or quotes are quoted.
func (t *Table) WriteCSV(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString(CSVLine(t.Columns))
	for _, row := range t.Rows {
		sb.WriteString(CSVLine(row))
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteJSON renders the table as a JSON document:
//
//	{"title": ..., "columns": [...], "rows": [{"col": "cell", ...}, ...]}
//
// Row objects keep the column order of the table (encoding/json would sort
// map keys, so the objects are written by hand); cell values stay the
// formatted strings the other writers emit, which keeps the three formats —
// and therefore determinism checks that diff them — consistent.
func (t *Table) WriteJSON(w io.Writer) error {
	var sb strings.Builder
	writeString := func(s string) error {
		data, err := json.Marshal(s)
		if err != nil {
			return err
		}
		sb.Write(data)
		return nil
	}
	sb.WriteString("{\n  \"title\": ")
	if err := writeString(t.Title); err != nil {
		return err
	}
	sb.WriteString(",\n  \"columns\": [")
	for i, c := range t.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		if err := writeString(c); err != nil {
			return err
		}
	}
	sb.WriteString("],\n  \"rows\": [")
	for r, row := range t.Rows {
		if r > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("\n    {")
		for i, c := range t.Columns {
			if i > 0 {
				sb.WriteString(", ")
			}
			if err := writeString(c); err != nil {
				return err
			}
			sb.WriteString(": ")
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if err := writeString(cell); err != nil {
				return err
			}
		}
		sb.WriteString("}")
	}
	if len(t.Rows) > 0 {
		sb.WriteString("\n  ")
	}
	sb.WriteString("]\n}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
