package sim

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"jabasd/internal/fault"
)

// TestConfigJSONRoundTripIdenticalRunOutput is the API-redesign acceptance
// check for the configuration layer: marshal → unmarshal must reproduce the
// scenario exactly, demonstrated the strongest way available — running both
// configurations and requiring identical output, not just equal structs.
func TestConfigJSONRoundTripIdenticalRunOutput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rings = 1
	cfg.SimTime = 4
	cfg.WarmupTime = 1
	cfg.DataUsersPerCell = 3
	cfg.VoiceUsersPerCell = 2
	cfg.Direction = Reverse
	cfg.FrameMode = FrameSnapshot
	cfg.Faults = &fault.Schedule{Load: []fault.LoadEvent{{AtSec: 2, ReadingTimeSec: 6}}}

	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("round trip changed the config:\nbefore %+v\nafter  %+v", cfg, back)
	}

	ctx := context.Background()
	want, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(ctx, back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("round-tripped config produced different run output")
	}
}

// TestConfigJSONEnumsEncodeAsStrings pins the readable JSON forms: the
// direction and objective kind marshal by name. The direction decodes from
// its name only; the objective kind also accepts its ordinal, which the
// oracle's wire API keeps.
func TestConfigJSONEnumsEncodeAsStrings(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Direction = Reverse
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Direction":"reverse"`, `"Kind":"j2"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("encoded config missing %s", want)
		}
	}
	var back Config
	if err := json.Unmarshal([]byte(`{"Direction": "reverse", "Objective": {"Kind": 0}}`), &back); err != nil {
		t.Fatalf("direction name or objective ordinal rejected: %v", err)
	}
	if back.Direction != Reverse {
		t.Error("Direction name not decoded")
	}
	for _, bad := range []string{`{"Direction": 1}`, `{"Direction": 0}`, `{"Direction": "sideways"}`} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil || !strings.Contains(err.Error(), "unknown direction") {
			t.Errorf("%s decoded with error %v, want an unknown direction", bad, err)
		}
	}
}

// TestConfigDecodeIsStrict pins the decoder every config source goes
// through (-config files, job specs, checkpoints): a key naming no field is
// refused by name at any depth, and so are the removed keys RegionEpsilon,
// Tiles and LoadStep, whatever their value. A key the decoder accepts
// changes only its own field.
func TestConfigDecodeIsStrict(t *testing.T) {
	for _, tc := range []struct{ name, json, want string }{
		{"top-level", `{"Seed": 2, "Sed": 3}`, `"Sed"`},
		{"nested", `{"Faults": {"cels": []}}`, `"cels"`},
		{"removed epsilon", `{"RegionEpsilon": 0}`, `"RegionEpsilon"`},
		{"removed tiles", `{"Tiles": 8}`, `"Tiles"`},
		{"removed load step", `{"LoadStep": {"AtSec": 1, "ReadingTimeSec": 2}}`, `"LoadStep"`},
		{"removed null load step", `{"LoadStep": null}`, `"LoadStep"`},
	} {
		cfg := DefaultConfig()
		if err := json.Unmarshal([]byte(tc.json), &cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %s decoded with error %v, want one naming %s", tc.name, tc.json, err, tc.want)
		}
	}
	cfg := DefaultConfig()
	if err := json.Unmarshal([]byte(`{"Seed": 9}`), &cfg); err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.Seed = 9
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("decode on top of the defaults changed more than Seed:\n%+v", cfg)
	}
}

// TestValidateReportsAllErrorsAtOnce checks that a configuration with many
// independent mistakes surfaces every one of them in a single Validate call.
func TestValidateReportsAllErrorsAtOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SimTime = -1
	cfg.CellRadius = 0
	cfg.DataUsersPerCell = -2
	cfg.CommonOverheadFrac = 1.5
	cfg.Scheduler = "bogus"
	cfg.FrameMode = "warp"
	cfg.Direction = Direction(7)
	cfg.TraceEvery = -1
	err := cfg.Validate()
	if err == nil {
		t.Fatal("expected errors")
	}
	for _, want := range []string{
		"SimTime", "topology", "user counts", "CommonOverheadFrac",
		"bogus", "frame mode", "TraceEvery",
		"unknown direction 7 (want forward or reverse)",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate should report %q in one call, got:\n%v", want, err)
		}
	}
}
