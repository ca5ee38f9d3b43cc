package sim

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jabasd/internal/fault"
)

// TestConfigJSONRoundTripEveryField walks the Config type with reflection,
// perturbs every serialisable leaf field one at a time and requires the
// perturbed configuration to survive marshal → unmarshal exactly. A field
// added without a JSON round trip (or accidentally tagged json:"-") fails
// here by construction, so the checkpoint header — which stores the config
// as JSON — can never silently drop scenario state.
func TestConfigJSONRoundTripEveryField(t *testing.T) {
	base := DefaultConfig()
	// Give the optional pointer a value so its leaves are walkable.
	base.Faults = &fault.Schedule{
		Cells: []fault.CellEvent{{Cell: 1, StartSec: 5, EndSec: 10, Derate: 0.5}},
		Load:  []fault.LoadEvent{{AtSec: 2, ReadingTimeSec: 6}},
	}

	var leaves []string
	var excluded []string
	var collect func(rt reflect.Type, prefix string)
	collect = func(rt reflect.Type, prefix string) {
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			name := prefix + f.Name
			if !f.IsExported() {
				t.Fatalf("unexported config field %s cannot round-trip", name)
			}
			if f.Tag.Get("json") == "-" {
				excluded = append(excluded, name)
				continue
			}
			ft := f.Type
			if ft.Kind() == reflect.Ptr {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				collect(ft, name+".")
				continue
			}
			leaves = append(leaves, name)
		}
	}
	collect(reflect.TypeOf(Config{}), "")

	// The only fields allowed to skip serialisation are the runtime sinks.
	sort.Strings(excluded)
	if want := []string{"CheckpointSink", "SolveTrace", "Trace"}; !reflect.DeepEqual(excluded, want) {
		t.Fatalf("json:\"-\" fields are %v, want exactly %v", excluded, want)
	}
	if len(leaves) < 40 {
		t.Fatalf("walked only %d leaves — the reflection walk is broken", len(leaves))
	}

	for _, path := range leaves {
		cfg := base
		// The pointer is shared with base; give this copy its own so the
		// perturbation does not leak across cases.
		fs := fault.Schedule{
			Cells: append([]fault.CellEvent(nil), base.Faults.Cells...),
			Load:  append([]fault.LoadEvent(nil), base.Faults.Load...),
		}
		cfg.Faults = &fs
		perturbConfigLeaf(t, &cfg, path)
		if reflect.DeepEqual(cfg, base) {
			t.Fatalf("%s: perturbation was a no-op", path)
		}

		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", path, err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", path, err)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Errorf("%s: did not survive the JSON round trip:\nbefore %+v\nafter  %+v", path, cfg, back)
		}
	}
}

// perturbConfigLeaf changes the leaf at path to a different, decodable
// value. Enum-like fields with constrained decoders toggle between their
// valid values; everything else gets a simple offset.
func perturbConfigLeaf(t *testing.T, cfg *Config, path string) {
	t.Helper()
	v := reflect.ValueOf(cfg).Elem()
	for _, part := range strings.Split(path, ".") {
		if v.Kind() == reflect.Ptr {
			v = v.Elem()
		}
		v = v.FieldByName(part)
		if !v.IsValid() {
			t.Fatalf("%s: field not found", path)
		}
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.375)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		switch v.Type().Name() {
		case "Direction", "ObjectiveKind":
			v.SetInt(1 - v.Int()) // both decoders accept exactly {0, 1}
		default:
			v.SetInt(v.Int() + 3)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 5)
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.String:
		switch v.Type().Name() {
		case "FrameMode":
			if FrameMode(v.String()).normalize() == FrameSnapshot {
				v.SetString(string(FrameSequential))
			} else {
				v.SetString(string(FrameSnapshot))
			}
		case "SchedulerKind":
			v.SetString(string(SchedulerFCFS))
		default:
			v.SetString(v.String() + "x")
		}
	default:
		t.Fatalf("%s: unhandled kind %s — teach the perturber about it", path, v.Kind())
	}
}
