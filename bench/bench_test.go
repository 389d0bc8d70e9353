package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestSpecAgreesWithCode fails when BENCHMARK.json and the code disagree
// on a workload or metric in either direction: a name in one and not in
// the other would be silently skipped.
func TestSpecAgreesWithCode(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	check := func(kind string, declared []specMetric, defs []metricDef) {
		want := make(map[string]string)
		for _, def := range defs {
			if def.ReportOnly == "" {
				want[def.Name] = def.Unit
			}
		}
		seen := make(map[string]bool)
		for _, m := range declared {
			if !name.MatchString(m.Name) {
				t.Errorf("%s metric %q: not a valid name", kind, m.Name)
			}
			if seen[m.Name] {
				t.Errorf("%s metric %q declared twice", kind, m.Name)
			}
			seen[m.Name] = true
			unit, ok := want[m.Name]
			if !ok {
				t.Errorf("%s metric %q is in BENCHMARK.json but the code does not emit it", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %q: unit %q in BENCHMARK.json, %q in the code", kind, m.Name, m.Unit, unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, m.Name, m.Better)
			}
		}
		for n := range want {
			if !seen[n] {
				t.Errorf("%s metric %q is emitted by the code but missing from BENCHMARK.json", kind, n)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m, ok := spec.endToEnd("setup_s"); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better; got %+v", m)
	}
}

// TestSmoke runs every workload in both modes at smoke size and checks
// that each declared metric comes out finite, that no operation fails,
// and that the cache guards hold.
func TestSmoke(t *testing.T) {
	p := params{
		corpusDir: "../corpus",
		outDir:    t.TempDir(),
		seed:      1,
		window:    time.Second,
		minRounds: 1,
		smoke:     true,
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(name, p, traced)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s: %d of %d operations failed: %s", name, res.Failed, res.Attempted, res.FirstError)
			}
			defs, values := endToEnd, res.EndToEnd
			if traced {
				defs, values = perLayer, res.PerLayer
			}
			for _, def := range defs {
				v, ok := values[def.Name]
				if !ok && def.ReportOnly != "" {
					continue // undefined on this workload
				}
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (present %v)", name, traced, def.Name, v, ok)
				}
			}

			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
				t.Fatalf("%s: driver line: %v", name, err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s: driver line lacks a passing verdict: %s", name, driverLine(res))
			}
			for _, def := range defs {
				m, ok := line.Metrics[def.Name]
				if ok != (def.ReportOnly == "") || (ok && (m.Value == nil || m.Unit != def.Unit)) {
					t.Errorf("%s traced=%v: driver line metric %s: present %v, %+v", name, traced, def.Name, ok, m)
				}
			}

			if !traced {
				continue
			}
			builds, warm := res.PerLayer["server.model_builds"], res.PerLayer["server.cache_warm"]
			switch name {
			case "cold-corpus":
				if builds != float64(res.OpsPerRound) || warm != 0 {
					t.Errorf("cold-corpus: %v builds and %v warm hits in %d ops", builds, warm, res.OpsPerRound)
				}
			case "warm-whatif":
				if builds != 0 || warm != float64(res.OpsPerRound) || res.PerLayer["spec.build_calls"] != 0 {
					t.Errorf("warm-whatif: %v builds, %v warm hits, %v replayed builds in %d ops",
						builds, warm, res.PerLayer["spec.build_calls"], res.OpsPerRound)
				}
				if res.PerLayer["linalg.gauss_seidel_solves"] != 0 || res.PerLayer["linalg.lu_solves"] != 0 {
					t.Errorf("warm-whatif replay ran linear solves: %v", res.PerLayer)
				}
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("%s: trace file: %v", name, err)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples must be 0")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.add(spanReplay, 0, 0, 0, 100e6)
	tr.add("a", root, 0, 10e6, 30e6)
	tr.add("b", root, 0, 20e6, 50e6)  // overlaps a by 10 ms
	tr.add("c", root, -1, 60e6, 65e6) // what a round does before its first operation
	self := tr.selfMS()
	if got := self[root]; math.Abs(got-55) > 1e-9 {
		t.Errorf("root self time %v ms, want 55", got)
	}
	if ops, rest := tr.layerSelfMS(); ops != 50 || rest != 5 {
		t.Errorf("layer self time %v of operations and %v of the rest, want 50 and 5", ops, rest)
	}
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name          string
		ratio, spread float64
		throughout    bool
		better, want  string
	}{
		{"within bound", 1.05, 0.02, false, "lower", "ok"},
		{"slower than bound", 1.2, 0.02, false, "lower", "regressed"},
		{"higher is better", 0.8, 0.02, false, "higher", "regressed"},
		{"noisy", 1.2, 0.3, false, "lower", "unresolved"},
		{"noisy but better throughout", 0.5, 0.3, true, "lower", "ok"},
	}
	for _, c := range cases {
		if got := judge(c.ratio, c.spread, c.throughout, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
