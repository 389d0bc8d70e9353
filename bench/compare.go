package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles prints, per workload and end-to-end metric, both values,
// their ratio with its base, the regression bound, and a verdict. It
// reports whether any metric regressed.
//
// The i-th untraced run of a workload in a pairs with the i-th in b:
// results files grow by appending, so runs taken alternately on two
// commits pair up runs made within a minute of each other, and the
// host's slow wander (tens of percent over minutes) cancels in each
// pair's ratio. The values shown are medians over the runs, the ratio is
// the median pair's.
//
// A metric is "unresolved" when the spread exceeds the bound, unless b
// is better throughout: a difference smaller than the noise is neither a
// regression nor proof of none. With several pairs the spread is the
// interquartile range of the pairs' ratios, and "throughout" is every
// pair. With one pair it is the wider interquartile range of the two
// runs' per-round samples as a share of a's value, and "throughout" is
// every sample of b against every sample of a.
func compareFiles(w io.Writer, spec *benchmarkSpec, a, b *resultsFile) (regressed bool) {
	fmt.Fprintf(w, "a: commit %s seed %d    b: commit %s seed %d\n", a.GitCommit, a.Seed, b.GitCommit, b.Seed)
	fmt.Fprintf(w, "%-14s %-13s %5s %12s %12s  %-28s %6s  %s\n", "workload", "metric", "pairs", "a", "b", "ratio", "bound", "verdict")
	for _, name := range workloadNames {
		ras, rbs := a.timed(name), b.timed(name)
		pairs := min(len(ras), len(rbs))
		for _, def := range endToEnd {
			better, bound := def.Better, def.Bound
			if m, ok := spec.endToEnd(def.Name); ok {
				better, bound = m.Better, m.Bound
			}
			var as, bs []float64
			for i := 0; i < pairs; i++ {
				va, okA := ras[i].EndToEnd[def.Name]
				vb, okB := rbs[i].EndToEnd[def.Name]
				if okA && okB {
					as, bs = append(as, va), append(bs, vb)
				}
			}
			if len(as) == 0 {
				continue
			}
			verdict, ratio := "ok", "-"
			if va := median(as); va == 0 {
				// failed_share at the base: the bound is absolute.
				if median(bs) > bound {
					verdict = "regressed"
				}
			} else {
				ratios := make([]float64, len(as))
				for i := range as {
					ratios[i] = bs[i] / as[i]
				}
				spread, throughout := iqr(ratios), allBetter([]float64{1}, ratios, better)
				if len(ratios) == 1 {
					spread, throughout = roundNoise(ras[0].samples(def.Name), rbs[0].samples(def.Name), va, better)
				}
				verdict = judge(median(ratios), spread, throughout, better, bound)
				ratio = fmt.Sprintf("b/a = %.4f (a = %.5g %s)", median(ratios), va, def.Unit)
			}
			if verdict == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-14s %-13s %5d %12.5g %12.5g  %-28s %5.0f%%  %s\n",
				name, def.Name, len(as), median(as), median(bs), ratio, 100*bound, verdict)
		}
	}
	return regressed
}

// samples returns the per-round (or per-repetition) values behind an
// end-to-end metric, nil for a metric read once per run.
func (r *result) samples(metric string) []float64 {
	switch metric {
	case "setup_s":
		return r.SetupS
	case "round_s":
		return r.RoundS
	case "op_p50_ms":
		return r.RoundP50MS
	case "op_p90_ms":
		return r.RoundP90MS
	case "peak_rss_mb":
		return r.RoundRSSMB
	}
	return nil
}

// roundNoise is the noise of a single pair of runs, read off their
// per-round samples; a metric read once per run has none on file.
func roundNoise(sa, sb []float64, va float64, better string) (spread float64, throughout bool) {
	if len(sa) < 2 || len(sb) < 2 {
		return 0, true
	}
	return math.Max(iqr(sa), iqr(sb)) / va, allBetter(sa, sb, better)
}

// judge gives the verdict on a ratio b/a whose noise has the given
// spread; throughout says that b is better wherever the two were set
// side by side.
func judge(ratio, spread float64, throughout bool, better string, bound float64) string {
	worse := ratio - 1 // lower is better: b above a is worse
	if better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case spread > bound && !throughout:
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "ok"
}

// allBetter reports whether every sample of bs is better than every
// sample of as.
func allBetter(as, bs []float64, better string) bool {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, v := range bs {
		worstB = math.Max(worstB, sign*v)
	}
	for _, v := range as {
		bestA = math.Min(bestA, sign*v)
	}
	return worstB < bestA
}
