package fault

import (
	"encoding/json"
	"slices"
	"testing"
)

// FuzzFaultSchedule decodes arbitrary bytes into a Schedule and, when it
// validates for a small layout and run, drives a State over every frame
// time: Down and Derate must agree with each other and with the one event
// covering each cell, Advance must report exactly the down-mask changes,
// NextLoad must hand out each load event once, in order, on the first frame
// at or after it, and the load cursor must survive SetLoadCursor, both in
// place and into a fresh State the way a checkpoint restores it.
func FuzzFaultSchedule(f *testing.F) {
	const (
		numCells = 7
		simTime  = 10.0
		frameLen = 0.05
		frames   = 200 // simTime / frameLen
	)
	for _, name := range Profiles() {
		s, err := Profile(name, numCells, simTime, 5)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, refused := range []string{
		`{"cells":[{"cell":7,"start_sec":1,"end_sec":2}]}`,
		`{"cells":[{"cell":0,"start_sec":1,"end_sec":3},{"cell":0,"start_sec":2,"end_sec":4,"derate":0.5}]}`,
		`{"cells":[{"cell":2,"start_sec":1,"end_sec":2,"derate":1}]}`,
		`{"cells":[{"cell":2,"start_sec":10,"end_sec":12}]}`,
		`{"load":[{"at_sec":5,"reading_time_sec":1},{"at_sec":5,"reading_time_sec":2}]}`,
		`{"load":[{"at_sec":1,"reading_time_sec":0}]}`,
	} {
		f.Add([]byte(refused))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *Schedule
		if json.Unmarshal(data, &s) != nil || s.Validate(numCells, simTime) != nil {
			return
		}
		var cells []CellEvent
		var loads []LoadEvent
		if s != nil {
			cells, loads = s.Cells, s.Load
		}
		st := NewState(s, numCells)
		prevDown := make([]bool, numCells)
		handed := 0
		for frame := 0; frame <= frames; frame++ {
			now := float64(frame) * frameLen
			changed := st.Advance(now)
			flipped := false
			for k := range numCells {
				want := 1.0
				for _, ev := range cells {
					if ev.Cell == k && now >= ev.StartSec && now < ev.EndSec {
						want = ev.Derate
					}
				}
				if st.Derate[k] != want || st.Derate[k] < 0 || st.Derate[k] > 1 {
					t.Fatalf("t=%g cell %d: Derate %g, want %g", now, k, st.Derate[k], want)
				}
				if st.Down[k] != (st.Derate[k] == 0) {
					t.Fatalf("t=%g cell %d: Down %v with Derate %g", now, k, st.Down[k], st.Derate[k])
				}
				flipped = flipped || st.Down[k] != prevDown[k]
			}
			if changed != flipped {
				t.Fatalf("t=%g: Advance reported change %v, down mask flipped %v", now, changed, flipped)
			}
			if st.AnyDown() != slices.Contains(st.Down, true) {
				t.Fatalf("t=%g: AnyDown %v for mask %v", now, st.AnyDown(), st.Down)
			}
			copy(prevDown, st.Down)
			for {
				ev, ok := st.NextLoad(now)
				if !ok {
					break
				}
				if handed >= len(loads) || ev != loads[handed] {
					t.Fatalf("t=%g: NextLoad handed %+v as event %d of %v", now, ev, handed, loads)
				}
				if ev.AtSec > now || (frame > 0 && ev.AtSec <= float64(frame-1)*frameLen) {
					t.Fatalf("t=%g: load event at %gs handed on the wrong frame", now, ev.AtSec)
				}
				handed++
			}
			if handed < len(loads) && loads[handed].AtSec <= now {
				t.Fatalf("t=%g: load event %d at %gs is due but was not handed out", now, handed, loads[handed].AtSec)
			}
			c := st.LoadCursor()
			if c != handed {
				t.Fatalf("t=%g: LoadCursor %d after %d events", now, c, handed)
			}
			if err := st.SetLoadCursor(c); err != nil || st.LoadCursor() != c {
				t.Fatalf("t=%g: SetLoadCursor(%d) = %v, cursor now %d", now, c, err, st.LoadCursor())
			}
			restored := NewState(s, numCells)
			if err := restored.SetLoadCursor(c); err != nil {
				t.Fatalf("t=%g: restoring cursor %d: %v", now, c, err)
			}
			if ev, ok := restored.NextLoad(now); ok {
				t.Fatalf("t=%g: a restored cursor %d hands out %+v again", now, c, ev)
			}
		}
		if st.SetLoadCursor(-1) == nil || st.SetLoadCursor(len(loads)+1) == nil {
			t.Fatalf("out-of-range load cursors accepted for %d events", len(loads))
		}
	})
}
