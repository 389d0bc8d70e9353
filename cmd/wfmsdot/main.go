// Command wfmsdot renders workflow specifications as Graphviz DOT: the
// statechart itself or the CTMC it maps onto (the paper's Figure 3 and
// Figure 4 views).
//
// Usage:
//
//	wfmsdot -workload ep -view chart | dot -Tsvg > ep.svg
//	wfmsdot -workload ep -view ctmc
//	wfmsdot -spec system.json -view chart
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"performa/internal/spec"
	"performa/internal/wfjson"
	"performa/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "ep", "built-in workflow: ep, epx, order, or loan")
		specFile     = flag.String("spec", "", "JSON system specification (overrides -workload)")
		view         = flag.String("view", "chart", "what to render: chart (statechart) or ctmc (mapped Markov chain, Erlang stages spelled out)")
		index        = flag.Int("workflow", 0, "workflow index within a -spec document")
	)
	flag.Parse()

	env, flow, err := selectWorkflow(*workloadName, *specFile, *index)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfmsdot:", err)
		os.Exit(1)
	}

	switch strings.ToLower(*view) {
	case "chart":
		fmt.Print(flow.Chart.DOT())
	case "ctmc":
		m, err := spec.Build(flow, env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfmsdot:", err)
			os.Exit(1)
		}
		fmt.Print(spec.Expand(m).Chain.DOT())
	default:
		fmt.Fprintf(os.Stderr, "wfmsdot: unknown view %q (want chart or ctmc)\n", *view)
		os.Exit(2)
	}
}

func selectWorkflow(name, specFile string, index int) (*spec.Environment, *spec.Workflow, error) {
	if specFile != "" {
		f, err := os.Open(specFile)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		env, flows, err := wfjson.Decode(f)
		if err != nil {
			return nil, nil, err
		}
		if index < 0 || index >= len(flows) {
			return nil, nil, fmt.Errorf("workflow index %d out of range [0,%d)", index, len(flows))
		}
		return env, flows[index], nil
	}
	switch strings.ToLower(name) {
	case "ep":
		return workload.PaperEnvironment(), workload.EPWorkflow(1), nil
	case "epx":
		return workload.ExtendedEnvironment(), workload.EPDistributed(1), nil
	case "order":
		return workload.PaperEnvironment(), workload.OrderWorkflow(1), nil
	case "loan":
		return workload.PaperEnvironment(), workload.LoanWorkflow(1), nil
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want ep, epx, order, or loan)", name)
	}
}
