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
// direction and objective kind marshal by name and accept both names and
// the pre-string ordinals on the way in.
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
	if err := json.Unmarshal([]byte(`{"Direction": 1, "Objective": {"Kind": 0}}`), &back); err != nil {
		t.Fatalf("legacy ordinal encoding rejected: %v", err)
	}
	if back.Direction != Reverse {
		t.Error("legacy Direction ordinal not decoded")
	}
	if err := json.Unmarshal([]byte(`{"Direction": "sideways"}`), &back); err == nil {
		t.Error("unknown direction should be rejected")
	}
}

// TestConfigDecodeIsStrict pins the decoder every config source goes
// through (-config files, job specs, checkpoints): a key naming no field is
// refused by name at any depth, the removed RegionEpsilon is accepted only
// as 0, the removed Tiles is accepted and ignored when non-negative, and
// the removed LoadStep is accepted as null.
func TestConfigDecodeIsStrict(t *testing.T) {
	for _, tc := range []struct{ name, json, want string }{
		{"top-level", `{"Seed": 2, "Sed": 3}`, `"Sed"`},
		{"nested", `{"Faults": {"cels": []}}`, `"cels"`},
		{"legacy step", `{"LoadStep": {"AtSec": 1, "ReadingTime": 2}}`, `"ReadingTime"`},
		{"epsilon", `{"RegionEpsilon": 0.05}`, "RegionEpsilon was removed"},
		{"negative tiles", `{"Tiles": -1}`, "Tiles must be >= 0"},
	} {
		cfg := DefaultConfig()
		if err := json.Unmarshal([]byte(tc.json), &cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %s decoded with error %v, want one naming %s", tc.name, tc.json, err, tc.want)
		}
	}
	for _, legacy := range []string{
		`{"Seed": 9, "RegionEpsilon": 0, "Tiles": 0, "LoadStep": null}`,
		`{"Seed": 9, "Tiles": 8}`,
	} {
		cfg := DefaultConfig()
		if err := json.Unmarshal([]byte(legacy), &cfg); err != nil {
			t.Fatalf("legacy keys %s refused: %v", legacy, err)
		}
		want := DefaultConfig()
		want.Seed = 9
		if !reflect.DeepEqual(cfg, want) {
			t.Errorf("%s: decode on top of the defaults changed more than Seed:\n%+v", legacy, cfg)
		}
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
	cfg.TraceEvery = -1
	err := cfg.Validate()
	if err == nil {
		t.Fatal("expected errors")
	}
	for _, want := range []string{
		"SimTime", "topology", "user counts", "CommonOverheadFrac",
		"bogus", "frame mode", "TraceEvery",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate should report %q in one call, got:\n%v", want, err)
		}
	}
}
