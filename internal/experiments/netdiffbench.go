package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/wfjson"
	"performa/internal/wfnet"
)

// NetDiffBenchRow is one measured collapse-vs-net comparison of E20, the
// record format of BENCH_netdiff.json: the paper's max-of-means collapse
// next to the free-choice net oracle's exact expected execution time.
type NetDiffBenchRow struct {
	// Case is "fork-join" for the parametric sweep, "corpus" for an
	// imported-workflow corpus system.
	Case string `json:"case"`
	// System is the corpus file's base name ("synthetic" for the sweep).
	System string `json:"system"`
	// Workflow is the workflow's name within the system.
	Workflow string `json:"workflow"`
	// Fan is the AND fan-out k of the synthetic fork-join (0 for corpus
	// rows, whose structure varies).
	Fan int `json:"fan,omitempty"`
	// Stages is the Erlang stage count of each synthetic branch; the
	// branch coefficient of variation is 1/sqrt(stages).
	Stages int `json:"stages,omitempty"`
	// BranchCV is that coefficient of variation (synthetic rows only).
	BranchCV float64 `json:"branch_cv,omitempty"`
	// Collapsed is the production collapse's mean turnaround
	// (max-of-means at every parallel state).
	Collapsed float64 `json:"collapsed"`
	// Net is the net oracle's exact expected execution time.
	Net float64 `json:"net"`
	// BiasRel is the collapse's relative underestimate,
	// (net − collapsed)/net — nonnegative for every workflow by the
	// one-sided Jensen ordering.
	BiasRel float64 `json:"bias_rel"`
	// Markings is the size of the net's reachable marking graph, the
	// net oracle's deterministic cost.
	Markings int `json:"markings"`
	// RefMean is the closed form d·H_k for exponential branches
	// (stages = 1): the expected maximum of k iid exponentials of mean d
	// is d times the k-th harmonic number. 0 where no closed form
	// applies.
	RefMean float64 `json:"ref_mean,omitempty"`
	// RefErr is the net oracle's relative error against RefMean.
	RefErr float64 `json:"ref_err,omitempty"`
}

// netDiffCases returns the parametric grid as explicit {fan, stages}
// pairs. The marking graph of a k-way fork of Erlang(s) branches holds
// roughly (s+1)^k tangible markings, so the corner combining high
// fan-out with many stages is excluded rather than silently truncated —
// the grid keeps every cell under the process state budget while still
// reaching k = 16 (exponential) and s = 16 (near-deterministic, k ≤ 4).
// The reduced grid keeps the CI smoke run in about a second.
func netDiffCases(reduced bool) [][2]int {
	if reduced {
		return [][2]int{{2, 1}, {2, 4}, {4, 1}, {4, 4}, {8, 1}}
	}
	return [][2]int{
		{2, 1}, {2, 4}, {2, 16},
		{4, 1}, {4, 4}, {4, 16},
		{8, 1}, {8, 4},
		{16, 1},
	}
}

// NetDiffBench runs the E20 collapse-error sweep: the synthetic
// fork-join grid quantifies the max-of-means bias as a function of
// fan-out and branch variability (with the d·H_k closed form pinning
// the exponential column), and every corpus system is measured so the
// envelope covers real workflow shapes. dir is the corpus directory
// (skipped if it has no systems and the sweep alone is returned);
// reduced selects the CI smoke grid.
func NetDiffBench(dir string, reduced bool) ([]NetDiffBenchRow, *Table, error) {
	t := &Table{
		ID:      "E20",
		Title:   "parallel-collapse bias: max-of-means turnaround vs free-choice net oracle",
		Columns: []string{"case", "system", "workflow", "fan", "stages", "cv", "collapsed", "net", "bias", "markings", "ref d·H_k", "ref err"},
	}
	var rows []NetDiffBenchRow

	const d = 1.0
	for _, c := range netDiffCases(reduced) {
		k, s := c[0], c[1]
		row, err := netDiffForkJoinRow(k, s, d)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: netdiff fork-join k=%d stages=%d: %w", k, s, err)
		}
		rows = append(rows, row)
		addNetDiffRow(t, row)
	}

	corpus, err := netDiffCorpusRows(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, row := range corpus {
		rows = append(rows, row)
		addNetDiffRow(t, row)
	}

	t.Notes = append(t.Notes,
		"bias = (net − collapsed)/net: the collapse's relative underestimate, ≥ 0 by the Jensen ordering",
		"synthetic branches are Erlang(stages) of mean 1; cv = 1/sqrt(stages)",
		"ref: E[max of k iid exponentials of mean d] = d·H_k, closed form for the stages = 1 column",
		"the high-fan × high-stage corner (~(stages+1)^fan markings) is excluded, not truncated: k = 8 stops at 4 stages, k = 16 at 1",
		"corpus rows measure every workflow of every imported system; fan/stages vary within, so those columns are blank")
	return rows, t, nil
}

// netDiffForkJoinRow measures one synthetic fork-join: k parallel
// branches, each a single Erlang(stages) activity of mean d.
func netDiffForkJoinRow(k, stages int, d float64) (NetDiffBenchRow, error) {
	chart, profiles := forkJoinChart(k, stages, d)
	row := NetDiffBenchRow{
		Case:     "fork-join",
		System:   "synthetic",
		Workflow: chart.Name,
		Fan:      k,
		Stages:   stages,
		BranchCV: 1 / math.Sqrt(float64(stages)),
	}
	col, err := wfnet.CollapsedReference(chart, profiles)
	if err != nil {
		return row, err
	}
	net, err := wfnet.FromChart(chart, profiles)
	if err != nil {
		return row, err
	}
	res, err := wfnet.ExpectedDefault(net)
	if err != nil {
		return row, err
	}
	row.Collapsed = col
	row.Net = res.Mean
	row.Markings = res.Markings
	if res.Mean > 0 {
		row.BiasRel = (res.Mean - col) / res.Mean
	}
	if stages == 1 {
		row.RefMean = d * harmonic(k)
		row.RefErr = relErr(row.RefMean, res.Mean)
	}
	return row, nil
}

// forkJoinChart builds the statechart init → AND(k branches) → final
// with every branch a single activity of mean d and the given Erlang
// stage count.
func forkJoinChart(k, stages int, d float64) (*statechart.Chart, map[string]spec.ActivityProfile) {
	par := &statechart.State{Name: "par"}
	for b := 0; b < k; b++ {
		name := fmt.Sprintf("branch%d", b)
		par.Subcharts = append(par.Subcharts, &statechart.Chart{
			Name: name,
			States: map[string]*statechart.State{
				"init": {Name: "init"},
				"work": {Name: "work", Activity: "act"},
				"fin":  {Name: "fin"},
			},
			Initial: "init",
			Final:   "fin",
			Transitions: []*statechart.Transition{
				{From: "init", To: "work", Prob: 1},
				{From: "work", To: "fin", Prob: 1},
			},
		})
	}
	chart := &statechart.Chart{
		Name: fmt.Sprintf("forkjoin-k%d-s%d", k, stages),
		States: map[string]*statechart.State{
			"init": {Name: "init"}, "par": par, "final": {Name: "final"},
		},
		Initial: "init",
		Final:   "final",
		Transitions: []*statechart.Transition{
			{From: "init", To: "par", Prob: 1},
			{From: "par", To: "final", Prob: 1},
		},
	}
	profiles := map[string]spec.ActivityProfile{
		"act": {Name: "act", MeanDuration: d, DurationStages: stages},
	}
	return chart, profiles
}

// netDiffCorpusRows measures the collapse bias of every workflow of
// every corpus system. A missing corpus directory yields no rows rather
// than an error, so the synthetic sweep stands alone.
func netDiffCorpusRows(dir string) ([]NetDiffBenchRow, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "systems", "*.wfjson"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var rows []NetDiffBenchRow
	for _, path := range paths {
		system := filepath.Base(path)
		system = system[:len(system)-len(filepath.Ext(system))]
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		_, flows, err := wfjson.Decode(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: netdiff corpus system %s: %w", system, err)
		}
		for _, flow := range flows {
			row := NetDiffBenchRow{Case: "corpus", System: system, Workflow: flow.Name}
			col, err := wfnet.CollapsedReference(flow.Chart, flow.Profiles)
			if err != nil {
				return nil, fmt.Errorf("experiments: netdiff corpus system %s workflow %s: %w", system, flow.Name, err)
			}
			net, err := wfnet.FromWorkflow(flow)
			if err != nil {
				return nil, fmt.Errorf("experiments: netdiff corpus system %s workflow %s: %w", system, flow.Name, err)
			}
			res, err := wfnet.ExpectedDefault(net)
			if err != nil {
				return nil, fmt.Errorf("experiments: netdiff corpus system %s workflow %s: %w", system, flow.Name, err)
			}
			row.Collapsed = col
			row.Net = res.Mean
			row.Markings = res.Markings
			if res.Mean > 0 {
				row.BiasRel = (res.Mean - col) / res.Mean
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// addNetDiffRow renders one row into the E20 table.
func addNetDiffRow(t *Table, row NetDiffBenchRow) {
	fan, stages, cv := "-", "-", "-"
	if row.Fan > 0 {
		fan = fmt.Sprintf("%d", row.Fan)
		stages = fmt.Sprintf("%d", row.Stages)
		cv = fmt.Sprintf("%.2f", row.BranchCV)
	}
	ref, refErr := "-", "-"
	if row.RefMean > 0 {
		ref = fmt.Sprintf("%.4f", row.RefMean)
		refErr = fmt.Sprintf("%.1e", row.RefErr)
	}
	t.AddRow(row.Case, row.System, row.Workflow, fan, stages, cv,
		fmt.Sprintf("%.4f", row.Collapsed), fmt.Sprintf("%.4f", row.Net),
		fmt.Sprintf("%.1f%%", 100*row.BiasRel), fmt.Sprintf("%d", row.Markings),
		ref, refErr)
}

// relErr is |got − ref| / |ref|, or |got| against a zero reference.
func relErr(ref, got float64) float64 {
	if ref == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-ref) / math.Abs(ref)
}

// harmonic returns the k-th harmonic number H_k = Σ_{i=1..k} 1/i.
func harmonic(k int) float64 {
	h := 0.0
	for i := 1; i <= k; i++ {
		h += 1 / float64(i)
	}
	return h
}
