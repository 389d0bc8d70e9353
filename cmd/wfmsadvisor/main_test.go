package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/wfjson"
	"performa/internal/workload"
)

// writeSpec exports the paper's EP system at the given arrival rate.
func writeSpec(t *testing.T, rate float64) string {
	t.Helper()
	var buf bytes.Buffer
	if err := wfjson.Encode(&buf, workload.PaperEnvironment(), []*spec.Workflow{workload.EPWorkflow(rate)}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "system.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTrail simulates the EP workflow at the true rate for horizon
// model minutes and writes the audit trail as JSON lines.
func writeTrail(t *testing.T, rate, horizon float64) string {
	t.Helper()
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(rate), env)
	if err != nil {
		t.Fatal(err)
	}
	trail := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{m}, Replicas: []int{4, 4, 4},
		Horizon: horizon, Seed: 1, Trail: trail,
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trail.WriteJSONLines(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func advise(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("wfmsadvisor %v: %v", args, err)
	}
	return out.String()
}

func TestKeep(t *testing.T) {
	out := advise(t, "-spec", writeSpec(t, 1), "-config", "2,2,3", "-max-wait", "0.01", "-max-unavail", "1e-5")
	if !strings.Contains(out, "verdict: keep") || !strings.Contains(out, "all goals met") || strings.Contains(out, "recommended") {
		t.Errorf("want a keep with no recommendation, got:\n%s", out)
	}
}

func TestGrowOnAvailability(t *testing.T) {
	out := advise(t, "-spec", writeSpec(t, 1), "-config", "1,1,1", "-max-unavail", "1.5e-6")
	// The known optimum from E1/E6: (2,2,3).
	for _, want := range []string{"verdict: grow", "availability goal violated", "recommended: (2,2,3) (7 servers)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	// Growth never shrinks a type.
	if regexp.MustCompile(`(?m)^  -\d`).MatchString(out) {
		t.Errorf("grow recommendation removes replicas from a running system:\n%s", out)
	}
}

func TestShrinkOnlyWhenAllowed(t *testing.T) {
	specFile := writeSpec(t, 1)
	out := advise(t, "-spec", specFile, "-config", "4,4,4", "-max-unavail", "1e-4", "-allow-shrink")
	for _, want := range []string{"verdict: shrink", "recommended: (2,2,2) (6 servers)", "goals hold at 6 servers instead of 12"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	// Without -allow-shrink the same situation is a keep.
	if out := advise(t, "-spec", specFile, "-config", "4,4,4", "-max-unavail", "1e-4"); !strings.Contains(out, "verdict: keep") {
		t.Errorf("verdict without -allow-shrink:\n%s", out)
	}
}

// TestTrailFlipsDecision: the designer guessed 0.05 instances/min, under
// which one replica of each type meets the waiting goal; the observed
// trail (10/min) recalibrates the model and the same deployment must
// grow.
func TestTrailFlipsDecision(t *testing.T) {
	specFile := writeSpec(t, 0.05)
	args := []string{"-spec", specFile, "-config", "1,1,1", "-max-wait", "1e-5"}
	if out := advise(t, args...); !strings.Contains(out, "verdict: keep") {
		t.Fatalf("designed model:\n%s", out)
	}
	out := advise(t, append(args, "-trail", writeTrail(t, 10, 60))...)
	for _, want := range []string{"recalibrated from", "verdict: grow", "waiting-time goal violated"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestRejectsSparseTrail(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-spec", writeSpec(t, 1), "-config", "2,2,3", "-max-unavail", "1e-4",
		"-trail", writeTrail(t, 1, 5)}, &out)
	if !errors.Is(err, calibrate.ErrTooFewObservations) {
		t.Errorf("err = %v, want ErrTooFewObservations", err)
	}
	if out.Len() != 0 {
		t.Errorf("sparse trail still produced advice:\n%s", out.String())
	}
}

func TestRejectsWrongLengthConfig(t *testing.T) {
	if err := run([]string{"-spec", writeSpec(t, 1), "-config", "1", "-max-unavail", "1e-4"}, &bytes.Buffer{}); err == nil {
		t.Error("wrong arity accepted")
	}
}

// TestRejectsInvalidWorkflow: a chart activity without a profile is a
// decode-time error, not a planner crash.
func TestRejectsInvalidWorkflow(t *testing.T) {
	doc, err := wfjson.ToDocument(workload.PaperEnvironment(), []*spec.Workflow{workload.EPWorkflow(1)})
	if err != nil {
		t.Fatal(err)
	}
	doc.Workflows[0].Activities = doc.Workflows[0].Activities[1:]
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "system.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", path, "-config", "2,2,3", "-max-unavail", "1e-4"}, &bytes.Buffer{}); err == nil {
		t.Error("invalid workflow accepted")
	}
}
