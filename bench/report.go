package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// resultsFile is what a run of the benchmark leaves behind for -compare
// and for before/after tables.
type resultsFile struct {
	Seed          uint64    `json:"seed"`
	GitCommit     string    `json:"git_commit"`
	GoVersion     string    `json:"go_version"`
	NProc         int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	WindowSeconds float64   `json:"window_seconds"`
	MinRounds     int       `json:"min_rounds"`
	Runs          []*result `json:"runs"`
}

func newResultsFile(p params) *resultsFile {
	return &resultsFile{
		Seed:          p.seed,
		GitCommit:     gitCommit(),
		GoVersion:     runtime.Version(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		WindowSeconds: p.window.Seconds(),
		MinRounds:     p.minRounds,
	}
}

// gitCommit is the commit the binary was built from when the toolchain
// stamped it, else what git says about the working directory.
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// write appends the runs to the results file at path, creating it if
// need be: runs taken alternately on two commits end up as two files
// whose runs pair up in order, which is what -compare judges. It refuses
// a file that holds the runs of another commit, seed or window.
func (f *resultsFile) write(path string) error {
	switch old, err := loadResultsFile(path); {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	case old.GitCommit != f.GitCommit || old.Seed != f.Seed || old.WindowSeconds != f.WindowSeconds:
		return fmt.Errorf("%s holds runs of commit %s, seed %d, window %g s: not appending these", path, old.GitCommit, old.Seed, old.WindowSeconds)
	default:
		f.Runs = append(old.Runs, f.Runs...)
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func loadResultsFile(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// timed returns the untraced runs of the workload, in file order.
func (f *resultsFile) timed(workload string) []*result {
	var runs []*result
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			runs = append(runs, r)
		}
	}
	return runs
}

// printResult writes every metric of one run by name, with its unit and
// the sample count behind it.
func printResult(w io.Writer, res *result) {
	mode, defs, values := "timed", endToEnd, res.EndToEnd
	if res.Traced {
		mode, defs, values = "traced", perLayer, res.PerLayer
	}
	fmt.Fprintf(w, "%s (%s): %d client(s), %d round(s) of %d ops, %d op samples, %d failed of %d; oracle %.2f s, set-up × %d\n",
		res.Workload, mode, res.Clients, len(res.RoundS), res.OpsPerRound, res.OpSamples,
		res.Failed, res.Attempted, res.OracleS, len(res.SetupS))
	if res.FirstError != "" {
		fmt.Fprintf(w, "  first failure: %s\n", res.FirstError)
	}
	for _, flag := range res.Flags {
		fmt.Fprintf(w, "  flag: %s\n", flag)
	}
	for _, def := range defs {
		v, ok := values[def.Name]
		if !ok {
			fmt.Fprintf(w, "  %-34s %14s %s\n", def.Name, "null", def.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %s%s\n", def.Name, v, def.Unit, sampleNote(def.Name, res))
	}
}

// sampleNote says how many samples a metric summarizes.
func sampleNote(name string, res *result) string {
	switch name {
	case "setup_s":
		return fmt.Sprintf("  (median of %d × %.3f of the processor time granted)", len(res.SetupS), res.SetupGranted)
	case "round_s", "events_per_s":
		q := res.RoundQuartiles
		return fmt.Sprintf("  (median of %d rounds, quartiles %.6g … %.6g, × %.3f granted)", q.N, q.Q1, q.Q3, res.Granted)
	case "op_p50_ms", "op_p90_ms":
		return fmt.Sprintf("  (over %d requests, each its median of %d rounds, × %.3f granted)", len(res.OpMedianMS), len(res.RoundS), res.Granted)
	case "peak_rss_mb":
		return fmt.Sprintf("  (median of %d rounds)", len(res.RoundRSSMB))
	}
	return ""
}

// driverLine is the last line of standard output in a single-workload
// run: the verdict and the metrics BENCHMARK.json declares for the mode.
func driverLine(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	defs, values := endToEnd, res.EndToEnd
	if res.Traced {
		defs, values = perLayer, res.PerLayer
	}
	for _, def := range defs {
		if def.ReportOnly == "" {
			metrics[def.Name] = value{Value: values[def.Name], Unit: def.Unit}
		}
	}
	return string(mustJSON(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics}))
}
