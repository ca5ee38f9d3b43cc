package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"jabasd/internal/sim"
)

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("expected 12 presets, got %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Error("names not sorted")
		}
	}
}

// TestNamesLookupDescribeShareOneMap asserts the derivation invariant: every
// name Names() returns resolves via Lookup to a configuration that
// validates, and carries a description — all three views read the same
// preset map, so none can drift.
func TestNamesLookupDescribeShareOneMap(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Errorf("duplicate preset name %q", name)
		}
		seen[name] = true
		cfg, err := Lookup(name)
		if err != nil {
			t.Fatalf("Names() lists %q but Lookup rejects it: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %q does not validate: %v", name, err)
		}
		if Describe(name) == "" {
			t.Errorf("preset %q has no description", name)
		}
	}
	if Describe("") != Describe(PresetBaseline) {
		t.Error("empty name should describe the baseline")
	}
	if Describe("no-such-preset") != "" {
		t.Error("unknown preset should have no description")
	}
}

func TestLookupAllPresetsValid(t *testing.T) {
	for _, name := range Names() {
		cfg, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s produced an invalid config: %v", name, err)
		}
	}
	if _, err := Lookup(""); err != nil {
		t.Error("empty name should be the baseline preset")
	}
	if _, err := Lookup("no-such-preset"); err == nil {
		t.Error("unknown preset should fail")
	}
}

func TestPresetDifferences(t *testing.T) {
	base, _ := Lookup(PresetBaseline)
	light, _ := Lookup(PresetLight)
	heavy, _ := Lookup(PresetHeavy)
	rev, _ := Lookup(PresetReverse)
	if light.DataUsersPerCell >= base.DataUsersPerCell {
		t.Error("light preset should have fewer users")
	}
	if heavy.DataUsersPerCell <= base.DataUsersPerCell {
		t.Error("heavy preset should have more users")
	}
	if rev.Direction != sim.Reverse {
		t.Error("reverse preset should set reverse direction")
	}
	metro, _ := Lookup(PresetMetro)
	if metro.Rings != 3 {
		t.Errorf("metro preset rings = %d, want 3 (37 cells)", metro.Rings)
	}
	if metro.DataUsersPerCell < 30 {
		t.Errorf("metro preset data users = %d, want >= 30", metro.DataUsersPerCell)
	}
	if metro.FrameMode != sim.FrameSnapshot {
		t.Error("metro preset should use the snapshot frame mode")
	}
	if !metro.WrapAround {
		t.Error("metro preset should wrap around")
	}
}

// TestSaveLoadRoundTrip: a config saved as Encode renders it (what
// jabasim -dump-config prints) loads back unchanged through the strict
// config decoder every -config file and job spec goes through.
func TestSaveLoadRoundTrip(t *testing.T) {
	cfg, _ := Lookup(PresetSmoke)
	cfg.Seed = 12345
	data, err := Encode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded := sim.DefaultConfig()
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != 12345 || loaded.Rings != cfg.Rings || loaded.DataUsersPerCell != cfg.DataUsersPerCell {
		t.Errorf("round trip mismatch: %+v vs %+v", loaded.Seed, cfg.Seed)
	}
}

func TestEncodeContainsFields(t *testing.T) {
	cfg, _ := Lookup(PresetSmoke)
	data, err := Encode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "DataUsersPerCell") || !strings.Contains(s, "Scheduler") {
		t.Error("encoded JSON missing expected fields")
	}
}
