package experiments

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"performa/internal/avail"
	"performa/internal/ctmc"
	"performa/internal/linalg"
)

// SolverBenchRow is one measured steady-state solve of E16, the record
// format of BENCH_solver.json.
type SolverBenchRow struct {
	// Config is the replication vector, e.g. "(7,15,15)".
	Config string `json:"config"`
	// States is the joint chain size Π (Y_x + 1).
	States int `json:"states"`
	// NNZ is the generator's stored-entry count (diagonal included).
	NNZ int `json:"nnz"`
	// Solver names the strategy ("dense", "gauss_seidel", or
	// "product_form").
	Solver string `json:"solver"`
	// WallMS is the end-to-end solve time (model build included).
	WallMS float64 `json:"wall_ms"`
	// Iterations is the solver sweep/step count (0 for direct solves).
	Iterations int64 `json:"iterations"`
	// AllocMB is the heap allocated during the solve.
	AllocMB float64 `json:"alloc_mb"`
	// PeakRSSMB is the process resident-set high-water mark after the
	// solve (monotone across rows; 0 where /proc is unavailable).
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	// Unavail is the computed steady-state unavailability.
	Unavail float64 `json:"unavail"`
	// RelErr is the relative error against the closed-form reference
	// 1 − Π_x (1 − u_x^{Y_x}), which is exact for independent repair.
	RelErr float64 `json:"rel_err"`
}

// solverBenchCase is one chain size of the sweep with the strategies it
// exercises; dense appears only where the MaxMatrixDim budget admits it.
type solverBenchCase struct {
	replicas []int
	solvers  []string
}

// solverBenchCases returns the sweep: reduced keeps the CI smoke run
// (race detector included) in seconds, the full sweep scales to the
// ~3-million-state chain that breaks the former 2^18 ceiling. Depth
// comes from extra server types rather than extreme per-type
// replication, so the closed-form unavailability stays well inside
// double precision and the rates stay in the production regime (λ < μ).
func solverBenchCases(reduced bool) []solverBenchCase {
	all := []string{"dense", "gauss_seidel", "product_form"}
	sparse := []string{"gauss_seidel", "product_form"}
	if reduced {
		return []solverBenchCase{
			{replicas: []int{3, 3, 3}, solvers: all},       // 64 states
			{replicas: []int{7, 7, 7}, solvers: all},       // 512 states
			{replicas: []int{15, 15, 15}, solvers: sparse}, // 4096 states
		}
	}
	return []solverBenchCase{
		{replicas: []int{3, 3, 3}, solvers: all},                   // 64
		{replicas: []int{7, 7, 7}, solvers: all},                   // 512
		{replicas: []int{7, 15, 15}, solvers: all},                 // 2048 = dense budget edge
		{replicas: []int{7, 7, 7, 7, 7}, solvers: sparse},          // 32768
		{replicas: []int{7, 7, 7, 7, 7, 7}, solvers: sparse},       // 262144
		{replicas: []int{11, 11, 11, 11, 11, 11}, solvers: sparse}, // 2985984 > 10 × 2^18
	}
}

// solverBenchParams builds the per-type failure/repair rates of the
// sweep. The paper environment's unavailability underflows double
// precision beyond a few replicas per type (u^Y with u ≈ 5e-3), which
// would turn the rel-err column into round-off noise; the bench instead
// uses per-server unavailabilities u ∈ {0.30, 0.40, 0.45} — harsh
// enough that the closed-form reference stays representable at every
// sweep depth, but still in the λ < μ regime of real systems.
func solverBenchParams(replicas []int) []avail.TypeParams {
	us := []float64{0.30, 0.40, 0.45}
	params := make([]avail.TypeParams, len(replicas))
	for i, y := range replicas {
		u := us[i%len(us)]
		params[i] = avail.TypeParams{
			Replicas:    y,
			FailureRate: u / (1 - u), // λ/(λ+μ) = u with μ = 1
			RepairRate:  1,
		}
	}
	return params
}

// SolverBench runs the E16 solver-scaling sweep over joint availability
// CTMCs of a synthetic harsh-availability environment and returns both
// the raw measurement rows (for BENCH_solver.json) and the printable
// table.
func SolverBench(reduced bool) ([]SolverBenchRow, *Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "steady-state solver scaling on the joint availability CTMC",
		Columns: []string{"config", "states", "nnz", "solver", "wall", "iters", "alloc MB", "unavail", "rel err"},
	}
	var rows []SolverBenchRow
	for _, c := range solverBenchCases(reduced) {
		params := solverBenchParams(c.replicas)
		ref := closedFormUnavailability(params)
		n, nnz := jointChainSize(params)
		for _, solver := range c.solvers {
			row, err := runSolverBenchRow(params, solver)
			if err != nil {
				return nil, nil, fmt.Errorf("solver bench %v/%s: %w", c.replicas, solver, err)
			}
			row.Config = configString(c.replicas)
			row.States = n
			row.NNZ = nnz
			row.RelErr = relErr(ref, row.Unavail)
			rows = append(rows, row)
			t.AddRow(row.Config, fmt.Sprintf("%d", row.States), fmt.Sprintf("%d", row.NNZ),
				row.Solver, fmtWall(row.WallMS), fmt.Sprintf("%d", row.Iterations),
				fmt.Sprintf("%.1f", row.AllocMB), fmt.Sprintf("%.4e", row.Unavail), fmt.Sprintf("%.1e", row.RelErr))
		}
	}
	t.Notes = append(t.Notes,
		"per-server unavailabilities u ∈ {0.30, 0.40, 0.45} keep the metric representable at every depth",
		"reference: closed form 1 − Π_x (1 − u_x^{Y_x}), exact for independent repair",
		"dense rows stop at the MaxMatrixDim budget (2048); the sparse path continues to MaxStates (2^23)",
		"product_form solves k one-dimensional marginals instead of the joint chain")
	return rows, t, nil
}

// runSolverBenchRow measures one solve: wall clock, heap allocation,
// iteration count (from the process-global solver counters), and the
// resulting unavailability.
func runSolverBenchRow(params []avail.TypeParams, solver string) (SolverBenchRow, error) {
	row := SolverBenchRow{Solver: solver}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := linalg.SolverCounters()
	t0 := time.Now()

	var rep *avail.Report
	var err error
	switch solver {
	case "product_form":
		rep, err = avail.EvaluateProductFormCached(params, avail.IndependentRepair, false, nil)
	case "dense":
		rep, err = avail.EvaluateSolver(params, avail.IndependentRepair, ctmc.SolverDense)
	case "gauss_seidel":
		rep, err = avail.EvaluateSolver(params, avail.IndependentRepair, ctmc.SolverGaussSeidel)
	default:
		err = fmt.Errorf("unknown solver %q", solver)
	}
	row.WallMS = float64(time.Since(t0)) / float64(time.Millisecond)
	runtime.ReadMemStats(&m1)
	row.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	row.PeakRSSMB = peakRSSMB()
	for _, c := range linalg.SolverCountersDelta(before) {
		row.Iterations += c.Iterations
	}
	if err != nil {
		return row, err
	}
	row.Unavail = rep.Unavailability
	return row, nil
}

// closedFormUnavailability is the paper's birth–death closed form: with
// independent repair the per-type availability is 1 − u^Y, u = λ/(λ+μ),
// and the types are independent.
func closedFormUnavailability(params []avail.TypeParams) float64 {
	up := 1.0
	for _, p := range params {
		u := p.FailureRate / (p.FailureRate + p.RepairRate)
		up *= 1 - math.Pow(u, float64(p.Replicas))
	}
	return 1 - up
}

// jointChainSize returns the joint state count and the generator's CSR
// entry count: one diagonal per state, one failure arc per type with
// X_t > 0, one repair arc per type with X_t < Y_t.
func jointChainSize(params []avail.TypeParams) (n, nnz int) {
	n = 1
	for _, p := range params {
		n *= p.Replicas + 1
	}
	nnz = n
	for _, p := range params {
		// States with X_t > 0 (failure arc) and with X_t < Y_t (repair
		// arc) each number n·Y_t/(Y_t+1).
		nnz += 2 * (n / (p.Replicas + 1)) * p.Replicas
	}
	return n, nnz
}

func configString(replicas []int) string {
	parts := make([]string, len(replicas))
	for i, y := range replicas {
		parts[i] = strconv.Itoa(y)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func relErr(ref, got float64) float64 {
	if ref == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-ref) / math.Abs(ref)
}

func fmtWall(ms float64) string {
	d := time.Duration(ms * float64(time.Millisecond))
	return d.Round(10 * time.Microsecond).String()
}

// peakRSSMB reads the process resident-set high-water mark (VmHWM) from
// /proc, returning 0 on platforms without it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
