package fault

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestValidateAcceptsSaneSchedule(t *testing.T) {
	s := &Schedule{
		Cells: []CellEvent{
			{Cell: 0, StartSec: 10, EndSec: 20},
			{Cell: 0, StartSec: 20, EndSec: 30, Derate: 0.5}, // back-to-back is not overlap
			{Cell: 3, StartSec: 5, EndSec: 120},              // end past SimTime is fine
		},
		Load: []LoadEvent{
			{AtSec: 10, ReadingTimeSec: 3},
			{AtSec: 40, ReadingTimeSec: 12},
		},
	}
	if err := s.Validate(19, 60); err != nil {
		t.Fatalf("Validate rejected a sane schedule: %v", err)
	}
	if (*Schedule)(nil).Validate(19, 60) != nil {
		t.Fatalf("nil schedule must validate")
	}
}

func TestValidateEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		want string
	}{
		{"unknown cell", Schedule{Cells: []CellEvent{{Cell: 19, StartSec: 1, EndSec: 2}}}, "unknown cell"},
		{"negative cell", Schedule{Cells: []CellEvent{{Cell: -1, StartSec: 1, EndSec: 2}}}, "unknown cell"},
		{"inverted window", Schedule{Cells: []CellEvent{{Cell: 0, StartSec: 5, EndSec: 5}}}, "invalid window"},
		{"negative start", Schedule{Cells: []CellEvent{{Cell: 0, StartSec: -1, EndSec: 2}}}, "invalid window"},
		{"past simtime", Schedule{Cells: []CellEvent{{Cell: 0, StartSec: 60, EndSec: 70}}}, "past the run's SimTime"},
		{"bad derate", Schedule{Cells: []CellEvent{{Cell: 0, StartSec: 1, EndSec: 2, Derate: 1.5}}}, "derate"},
		{"overlap", Schedule{Cells: []CellEvent{
			{Cell: 2, StartSec: 10, EndSec: 30},
			{Cell: 2, StartSec: 20, EndSec: 40},
		}}, "overlapping"},
		{"load past simtime", Schedule{Load: []LoadEvent{{AtSec: 60, ReadingTimeSec: 5}}}, "outside"},
		{"load bad reading time", Schedule{Load: []LoadEvent{{AtSec: 10, ReadingTimeSec: 0}}}, "non-positive reading time"},
		{"load out of order", Schedule{Load: []LoadEvent{
			{AtSec: 20, ReadingTimeSec: 5},
			{AtSec: 10, ReadingTimeSec: 8},
		}}, "ascending"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate(19, 60)
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateReportsAllViolations(t *testing.T) {
	s := Schedule{
		Cells: []CellEvent{
			{Cell: 99, StartSec: 1, EndSec: 2},
			{Cell: 0, StartSec: 61, EndSec: 70},
		},
		Load: []LoadEvent{{AtSec: 5, ReadingTimeSec: -1}},
	}
	err := s.Validate(19, 60)
	if err == nil {
		t.Fatal("expected errors")
	}
	for _, want := range []string{"unknown cell", "past the run's SimTime", "non-positive reading time"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q misses %q", err, want)
		}
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := &Schedule{
		Cells: []CellEvent{
			{Cell: 4, StartSec: 10, EndSec: 20},
			{Cell: 7, StartSec: 15, EndSec: 25, Derate: 0.25},
		},
		Load: []LoadEvent{{AtSec: 12, ReadingTimeSec: 3}},
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*s, back) {
		t.Fatalf("round trip changed the schedule:\n  in  %+v\n  out %+v", *s, back)
	}
	// An outage's zero derate must stay implicit: the JSON schema documents
	// "absent derate = full outage".
	if strings.Contains(string(b), `"derate":0,`) || strings.Contains(string(b), `"derate":0}`) {
		t.Fatalf("zero derate serialised explicitly: %s", b)
	}
}

func TestStateAdvance(t *testing.T) {
	s := &Schedule{Cells: []CellEvent{
		{Cell: 1, StartSec: 10, EndSec: 20},
		{Cell: 2, StartSec: 15, EndSec: 25, Derate: 0.5},
	}}
	st := NewState(s, 4)
	if changed := st.Advance(0); changed {
		t.Fatal("no cell is down at t=0")
	}
	if st.AnyDown() || slices.ContainsFunc(st.Derate, func(d float64) bool { return d != 1 }) {
		t.Fatal("healthy state reported faults at t=0")
	}
	if changed := st.Advance(10); !changed {
		t.Fatal("outage start must report a mask change")
	}
	if !st.Down[1] || st.Derate[1] != 0 {
		t.Fatalf("cell 1 should be down: Down=%v Derate=%v", st.Down, st.Derate)
	}
	if changed := st.Advance(15); changed {
		t.Fatal("a derate alone must not change the down-mask")
	}
	if st.Down[2] || st.Derate[2] != 0.5 {
		t.Fatalf("cell 2 should be derated to 0.5: Down=%v Derate=%v", st.Down, st.Derate)
	}
	if changed := st.Advance(20); !changed {
		t.Fatal("recovery must report a mask change")
	}
	if st.Down[1] || st.Derate[1] != 1 {
		t.Fatalf("cell 1 should have recovered: Down=%v Derate=%v", st.Down, st.Derate)
	}
	// Evaluation is a pure function of time: jumping back reproduces the
	// outage view exactly (this is what makes checkpoint resume trivial).
	st.Advance(12)
	if !st.Down[1] || st.Down[2] {
		t.Fatalf("re-evaluating t=12 diverged: Down=%v", st.Down)
	}
}

func TestStateNextLoadAndCursor(t *testing.T) {
	s := &Schedule{Load: []LoadEvent{
		{AtSec: 5, ReadingTimeSec: 3},
		{AtSec: 6, ReadingTimeSec: 2},
		{AtSec: 30, ReadingTimeSec: 12},
	}}
	st := NewState(s, 1)
	if _, ok := st.NextLoad(4.99); ok {
		t.Fatal("event handed out early")
	}
	// Two events fall into one frame: both drain, in order, exactly once.
	ev1, ok1 := st.NextLoad(6)
	ev2, ok2 := st.NextLoad(6)
	_, ok3 := st.NextLoad(6)
	if !ok1 || !ok2 || ok3 || ev1.ReadingTimeSec != 3 || ev2.ReadingTimeSec != 2 {
		t.Fatalf("drain order wrong: %v/%v %v/%v %v", ev1, ok1, ev2, ok2, ok3)
	}
	if st.LoadCursor() != 2 {
		t.Fatalf("cursor = %d, want 2", st.LoadCursor())
	}
	if err := st.SetLoadCursor(3); err != nil {
		t.Fatalf("in-range cursor rejected: %v", err)
	}
	if _, ok := st.NextLoad(1000); ok {
		t.Fatal("cursor restore did not skip applied events")
	}
	if err := st.SetLoadCursor(4); err == nil {
		t.Fatal("out-of-range cursor accepted")
	}
	if err := st.SetLoadCursor(-1); err == nil {
		t.Fatal("negative cursor accepted")
	}
}

func TestProfiles(t *testing.T) {
	for _, name := range Profiles() {
		s, err := Profile(name, 19, 60, 12)
		if err != nil {
			t.Fatalf("Profile(%q): %v", name, err)
		}
		if name == ProfileNone {
			if s != nil {
				t.Fatal("none must return a nil schedule")
			}
			continue
		}
		if s.Empty() {
			t.Fatalf("profile %q is empty", name)
		}
		if err := s.Validate(19, 60); err != nil {
			t.Fatalf("profile %q does not validate: %v", name, err)
		}
	}
	if _, err := Profile("bogus", 19, 60, 12); err == nil {
		t.Fatal("unknown profile accepted")
	}
}
