// Package sweep expands parameter grids over the scenario presets and runs
// them on a bounded-parallel worker pool, producing the paper-style result
// curves (admission probability, throughput, outage swept over offered load,
// mobility, scheduler, ...) that single-point runs of cmd/jabasim cannot.
//
// A Grid anchors on a named preset (internal/scenario) and declares axes —
// named parameter dimensions with a list of values each. The cross product
// of the axes, deduplicated, is the grid's point list; every point is a
// complete sim.Config. Stream runs every point's replications through
// sim.Replicate, one (point × replication) fan-out, and streams aggregated
// Point results in grid order as they complete. Seeds are derived from the
// point and replication indices only, so the output is byte-identical for a
// fixed base seed no matter how many workers run. The same axes apply the
// job overrides that name one (Set).
package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"jabasd/internal/core"
	"jabasd/internal/fault"
	"jabasd/internal/scenario"
	"jabasd/internal/sim"
)

// Axis is one swept dimension: a registered parameter name and the values it
// takes. Values are strings in the axis's own syntax (see Axes).
type Axis struct {
	Name   string
	Values []string
}

// Grid is a parameter sweep: a base configuration anchoring every point
// plus the axes whose cross product forms the point list. The zero Axes
// grid has exactly one point — the base itself.
type Grid struct {
	// Name labels built-in grids (see Grids); empty for ad-hoc grids.
	Name string
	// Preset is the scenario preset every point starts from ("" = baseline).
	// Ignored when Base is set.
	Preset string
	// Base, when non-nil, anchors every point on this configuration instead
	// of a named preset — a sweep over a scenario loaded from JSON.
	Base *sim.Config
	Axes []Axis
}

// AxisValue records the value one axis took at a grid point.
type AxisValue struct {
	Axis, Value string
}

// Point is one expanded grid point: its position in grid order, the axis
// values that produced it and the complete configuration.
type Point struct {
	Index  int
	Values []AxisValue
	Config sim.Config
}

// Label renders the point's axis assignments, e.g. "datausers=8 scheduler=fcfs".
func (p Point) Label() string {
	if len(p.Values) == 0 {
		return "(preset)"
	}
	parts := make([]string, len(p.Values))
	for i, v := range p.Values {
		parts[i] = v.Axis + "=" + v.Value
	}
	return strings.Join(parts, " ")
}

// axisDef registers one sweepable parameter: how to parse a value string and
// apply it to a configuration.
type axisDef struct {
	name  string
	usage string
	apply func(cfg *sim.Config, value string) error
}

// axisDefs is the axis registry, in display order.
func axisDefs() []axisDef {
	return []axisDef{
		{
			name: "datausers", usage: "data users per cell (int >= 0), e.g. 4,8,12",
			apply: func(cfg *sim.Config, v string) error {
				n, err := parseNonNegInt(v)
				if err != nil {
					return err
				}
				cfg.DataUsersPerCell = n
				return nil
			},
		},
		{
			name: "voiceusers", usage: "voice users per cell (int >= 0)",
			apply: func(cfg *sim.Config, v string) error {
				n, err := parseNonNegInt(v)
				if err != nil {
					return err
				}
				cfg.VoiceUsersPerCell = n
				return nil
			},
		},
		{
			name: "speed", usage: "mobile speed in m/s: min:max (e.g. 1:14) or a single constant value",
			apply: func(cfg *sim.Config, v string) error {
				lo, hi, err := parseSpeed(v)
				if err != nil {
					return err
				}
				cfg.MinSpeed, cfg.MaxSpeed = lo, hi
				return nil
			},
		},
		{
			name: "direction", usage: "link direction: forward or reverse",
			apply: func(cfg *sim.Config, v string) error {
				switch v {
				case "forward":
					cfg.Direction = sim.Forward
				case "reverse":
					cfg.Direction = sim.Reverse
				default:
					return fmt.Errorf("unknown direction %q (want forward or reverse)", v)
				}
				return nil
			},
		},
		{
			name: "scheduler", usage: "scheduler kind: jaba-sd, jaba-sd-greedy, fcfs, equal-share, random",
			apply: func(cfg *sim.Config, v string) error {
				kind := sim.SchedulerKind(v)
				if _, err := sim.NewScheduler(kind, 1); err != nil {
					return err
				}
				cfg.Scheduler = kind
				return nil
			},
		},
		{
			name: "framemode", usage: "frame admission mode: sequential or snapshot",
			apply: func(cfg *sim.Config, v string) error {
				switch sim.FrameMode(v) {
				case sim.FrameSequential, sim.FrameSnapshot:
					cfg.FrameMode = sim.FrameMode(v)
					return nil
				default:
					return fmt.Errorf("unknown frame mode %q (want sequential or snapshot)", v)
				}
			},
		},
		{
			name: "faultprofile", usage: "fault schedule profile: " + strings.Join(fault.Profiles(), ", "),
			apply: func(cfg *sim.Config, v string) error {
				// Scaled to the point's own run length, so the axis composes
				// with a sim-time override or a preset's SimTime.
				cells := 1 + 3*cfg.Rings*(cfg.Rings+1)
				sched, err := fault.Profile(v, cells, cfg.SimTime, cfg.Data.MeanReadingTimeSec)
				if err != nil {
					return err
				}
				cfg.Faults = sched
				return nil
			},
		},
		{
			name: "objective", usage: "admission objective: j1 (throughput) or j2 (delay-aware)",
			apply: func(cfg *sim.Config, v string) error {
				switch v {
				case "j1", "throughput":
					cfg.Objective = core.Objective{Kind: core.ObjectiveThroughput}
				case "j2", "delay-aware":
					cfg.Objective = core.DefaultObjective()
				default:
					return fmt.Errorf("want j1 or j2, got %q", v)
				}
				return nil
			},
		},
	}
}

// Axes returns "name: usage" lines for every registered axis, in display order.
func Axes() []string {
	defs := axisDefs()
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name + ": " + d.usage
	}
	return out
}

// AxisNames returns the registered axis names in display order.
func AxisNames() []string {
	defs := axisDefs()
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

func lookupAxis(name string) (axisDef, bool) {
	for _, d := range axisDefs() {
		if d.name == name {
			return d, true
		}
	}
	return axisDef{}, false
}

// Set applies one axis value to cfg, exactly as a grid point takes it.
func Set(cfg *sim.Config, axis, value string) error {
	d, ok := lookupAxis(axis)
	if !ok {
		return fmt.Errorf("sweep: unknown axis %q (available: %s)",
			axis, strings.Join(AxisNames(), ", "))
	}
	if err := d.apply(cfg, value); err != nil {
		return fmt.Errorf("sweep: axis %s value %q: %w", axis, value, err)
	}
	return nil
}

// ParseAxis parses one "name=v1,v2,..." axis specification.
func ParseAxis(spec string) (Axis, error) {
	name, rest, ok := strings.Cut(spec, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return Axis{}, fmt.Errorf("sweep: axis spec %q: want name=v1,v2,...", spec)
	}
	if _, known := lookupAxis(name); !known {
		return Axis{}, fmt.Errorf("sweep: unknown axis %q (available: %s)",
			name, strings.Join(AxisNames(), ", "))
	}
	var values []string
	for _, raw := range strings.Split(rest, ",") {
		if v := strings.TrimSpace(raw); v != "" {
			values = append(values, v)
		}
	}
	if len(values) == 0 {
		return Axis{}, fmt.Errorf("sweep: axis %q has no values", name)
	}
	return Axis{Name: name, Values: values}, nil
}

// New builds an ad-hoc grid from a preset name and "name=v1,v2,..." axis
// specifications, validating every axis name and value against the registry.
func New(preset string, axisSpecs []string) (Grid, error) {
	g := Grid{Preset: preset}
	for _, spec := range axisSpecs {
		ax, err := ParseAxis(spec)
		if err != nil {
			return Grid{}, err
		}
		g.Axes = append(g.Axes, ax)
	}
	return g, nil
}

// Points expands the grid into its deduplicated point list in grid order:
// row-major over the axes as declared, last axis varying fastest. Duplicate
// points — axis value lists with repeats, or distinct value tuples that
// produce an identical configuration — keep only their first occurrence, so
// indices (and therefore seeds) are stable for a given grid. Every returned
// configuration is validated.
func (g Grid) Points() ([]Point, error) {
	var base sim.Config
	if g.Base != nil {
		base = *g.Base
	} else {
		var err error
		base, err = scenario.Lookup(g.Preset)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	used := make(map[string]bool, len(g.Axes))
	total := 1
	for _, ax := range g.Axes {
		if _, ok := lookupAxis(ax.Name); !ok {
			return nil, fmt.Errorf("sweep: unknown axis %q (available: %s)",
				ax.Name, strings.Join(AxisNames(), ", "))
		}
		if used[ax.Name] {
			// A repeated axis would silently overwrite the earlier values in
			// every point; the user almost certainly meant one value list.
			return nil, fmt.Errorf("sweep: axis %q declared twice (merge the values into one -axis %s=... list)",
				ax.Name, ax.Name)
		}
		used[ax.Name] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", ax.Name)
		}
		total *= len(ax.Values)
	}

	var points []Point
	seen := make(map[string]bool, total)
	idx := make([]int, len(g.Axes))
	for n := 0; n < total; n++ {
		cfg := base
		values := make([]AxisValue, len(g.Axes))
		for i, ax := range g.Axes {
			v := ax.Values[idx[i]]
			if err := Set(&cfg, ax.Name, v); err != nil {
				return nil, err
			}
			values[i] = AxisValue{Axis: ax.Name, Value: v}
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: point %s: %w", Point{Values: values}.Label(), err)
		}
		if key := configKey(cfg); !seen[key] {
			seen[key] = true
			points = append(points, Point{Index: len(points), Values: values, Config: cfg})
		}
		// Advance the odometer: last axis fastest.
		for i := len(idx) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(g.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
	}
	return points, nil
}

// configKey canonicalises a configuration for point deduplication.
func configKey(cfg sim.Config) string {
	data, err := scenario.Encode(cfg)
	if err != nil {
		// Config is a plain data struct; encoding cannot fail in practice.
		panic(fmt.Sprintf("sweep: encode config: %v", err))
	}
	return string(data)
}

func parseNonNegInt(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("want a non-negative integer, got %q", v)
	}
	return n, nil
}

// parseSpeed accepts "min:max" or a single constant speed, both in m/s.
func parseSpeed(v string) (lo, hi float64, err error) {
	loStr, hiStr, ranged := strings.Cut(v, ":")
	lo, err = strconv.ParseFloat(loStr, 64)
	if err == nil && ranged {
		hi, err = strconv.ParseFloat(hiStr, 64)
	} else if err == nil {
		hi = lo
	}
	if err != nil || lo < 0 || hi < lo {
		return 0, 0, fmt.Errorf("want min:max or a constant speed in m/s, got %q", v)
	}
	return lo, hi, nil
}
