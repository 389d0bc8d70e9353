package crossval

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"performa/internal/wfjson"
)

// CorpusFile is a replayable reproducer: the (shrunk) system as a wfjson
// document plus the context of the failing run. `wfmscheck -replay`
// re-checks the file's system under the recorded fault.
type CorpusFile struct {
	// Seed is the generator seed that produced the original system.
	Seed uint64 `json:"seed"`
	// Fault names the injected fault, "none" for honest runs.
	Fault string `json:"fault"`
	// Replicas is the configuration vector under test.
	Replicas []int `json:"replicas"`
	// Disagreements are the deviations the harness detected.
	Disagreements []Disagreement `json:"disagreements"`
	// System is the self-contained system document.
	System *wfjson.Document `json:"system"`
}

// faultByName maps corpus fault names back to Fault values.
var faultByName = map[string]Fault{
	"none":                 FaultNone,
	"arrival-rate":         FaultArrivalRate,
	"service-moment":       FaultServiceMoment,
	"collapse-bias":        FaultCollapseBias,
	"drop-renormalisation": FaultDropRenormalisation,
}

// FaultByName resolves a fault name ("none", "arrival-rate",
// "service-moment", "collapse-bias", "drop-renormalisation").
func FaultByName(name string) (Fault, error) {
	f, ok := faultByName[name]
	if !ok {
		return FaultNone, fmt.Errorf("crossval: unknown fault %q (want none, arrival-rate, service-moment, collapse-bias, or drop-renormalisation)", name)
	}
	return f, nil
}

// WriteCorpus writes the system and its disagreements as a corpus file
// under dir, named after the seed, and returns the path.
func WriteCorpus(dir string, sys *System, fault Fault, ds []Disagreement) (string, error) {
	doc, err := wfjson.ToDocument(sys.Env, sys.Flows)
	if err != nil {
		return "", fmt.Errorf("crossval: encoding corpus system: %w", err)
	}
	cf := &CorpusFile{
		Seed:          sys.Seed,
		Fault:         fault.String(),
		Replicas:      append([]int(nil), sys.Replicas...),
		Disagreements: ds,
		System:        doc,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("crossval-seed%d.json", sys.Seed))
	buf, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadCorpus loads a corpus file back into a checkable system.
func ReadCorpus(path string) (*System, *CorpusFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var cf CorpusFile
	if err := json.Unmarshal(buf, &cf); err != nil {
		return nil, nil, fmt.Errorf("crossval: parsing corpus file %s: %w", path, err)
	}
	if cf.System == nil {
		return nil, nil, fmt.Errorf("crossval: corpus file %s has no system document", path)
	}
	env, flows, err := wfjson.FromDocument(cf.System)
	if err != nil {
		return nil, nil, fmt.Errorf("crossval: corpus file %s: %w", path, err)
	}
	if len(cf.Replicas) != env.K() {
		return nil, nil, fmt.Errorf("crossval: corpus file %s: %d replicas for %d server types", path, len(cf.Replicas), env.K())
	}
	sys := &System{
		Seed:     cf.Seed,
		Env:      env,
		Flows:    flows,
		Replicas: append([]int(nil), cf.Replicas...),
	}
	return sys, &cf, nil
}
