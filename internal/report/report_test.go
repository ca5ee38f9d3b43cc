package report

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteJSONRoundTrip(t *testing.T) {
	tbl := NewTable("curve", "x", "y")
	tbl.AddRow("a,b", 1.5)
	tbl.AddRow("q\"uote", 2)
	var sb strings.Builder
	if err := tbl.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title   string              `json:"title"`
		Columns []string            `json:"columns"`
		Rows    []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("WriteJSON emitted invalid JSON: %v\n%s", err, sb.String())
	}
	if doc.Title != "curve" || len(doc.Columns) != 2 || len(doc.Rows) != 2 {
		t.Errorf("round trip lost structure: %+v", doc)
	}
	if doc.Rows[0]["x"] != "a,b" || doc.Rows[0]["y"] != "1.5" {
		t.Errorf("row 0 = %v", doc.Rows[0])
	}
	if doc.Rows[1]["x"] != "q\"uote" {
		t.Errorf("quote not escaped: %v", doc.Rows[1])
	}
	// Row objects must keep column order (encoding/json cannot check that).
	raw := sb.String()
	if x, y := strings.Index(raw, `"x": "a,b"`), strings.Index(raw, `"y": "1.5"`); x < 0 || y < 0 || x > y {
		t.Errorf("row object lost column order:\n%s", raw)
	}
}

func TestWriteJSONEmptyTable(t *testing.T) {
	tbl := NewTable("empty", "only")
	var sb strings.Builder
	if err := tbl.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatalf("empty table JSON invalid:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `"rows": []`) {
		t.Errorf("empty table should have an empty rows array:\n%s", sb.String())
	}
}

// ascii renders the table's ASCII form.
func ascii(t *testing.T, tb *Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tb.WriteASCII(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestTableASCII(t *testing.T) {
	tb := NewTable("Demo", "scheduler", "delay", "coverage")
	tb.AddRow("JABA-SD", 0.123456, 0.97)
	tb.AddRow("FCFS", 1.5, 0.80)
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	out := ascii(t, tb)
	if !strings.Contains(out, "# Demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "JABA-SD") || !strings.Contains(out, "FCFS") {
		t.Error("rows missing")
	}
	if !strings.Contains(out, "scheduler") || !strings.Contains(out, "coverage") {
		t.Error("headers missing")
	}
	if !strings.Contains(out, "0.1235") {
		t.Errorf("float not formatted to 4 significant digits: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, " ") {
			t.Errorf("line ends in a space: %q", line)
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(1)
	if strings.Contains(ascii(t, tb), "#") {
		t.Error("untitled table should not emit a title line")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "name", "value")
	tb.AddRow("plain", 1)
	tb.AddRow("with,comma", 2.5)
	tb.AddRow(`with"quote`, 3)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 CSV lines, got %d", len(lines))
	}
	if lines[0] != "name,value" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(out, `"with,comma"`) {
		t.Error("comma cell not quoted")
	}
	if !strings.Contains(out, `"with""quote"`) {
		t.Error("quote cell not escaped")
	}
}

func TestFormatCellTypes(t *testing.T) {
	if formatCell(float32(2.5)) != "2.5" {
		t.Error("float32 formatting broken")
	}
	if formatCell(42) != "42" {
		t.Error("int formatting broken")
	}
	if formatCell("s") != "s" {
		t.Error("string formatting broken")
	}
}
