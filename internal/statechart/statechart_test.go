package statechart

import (
	"strings"
	"testing"
)

// linearChart returns init → A(actA) → final.
func linearChart(name string) *Chart {
	return NewBuilder(name).
		Initial("init").
		Activity("A", "actA").
		Final("done").
		Transition("init", "A", 1).
		Transition("A", "done", 1).
		MustBuild()
}

// branchLoopChart exercises branch, loop, and join:
//
//	init → work; work → check; check → work (0.3) | done (0.7)
func branchLoopChart() *Chart {
	return NewBuilder("loopy").
		Initial("init").
		Activity("work", "Work").
		InteractiveActivity("check", "Check").
		Final("done").
		Transition("init", "work", 1).
		Transition("work", "check", 1).
		Transition("check", "work", 0.3).
		Transition("check", "done", 0.7).
		MustBuild()
}

func TestBuilderLinear(t *testing.T) {
	c := linearChart("t")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.States) != 3 || len(c.Transitions) != 2 {
		t.Errorf("states=%d transitions=%d", len(c.States), len(c.Transitions))
	}
}

func TestBuilderDuplicateStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate state did not panic")
		}
	}()
	NewBuilder("x").Initial("a").Activity("a", "act")
}

func TestBuilderUnknownTransitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown endpoint did not panic")
		}
	}()
	NewBuilder("x").Initial("a").Transition("a", "nope", 1)
}

func TestBuilderEmptyNestedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty nested did not panic")
		}
	}()
	NewBuilder("x").Nested("n")
}

func TestValidateCatchesProbabilitySum(t *testing.T) {
	_, err := NewBuilder("x").
		Initial("i").Activity("a", "act").Final("f").
		Transition("i", "a", 1).
		Transition("a", "f", 0.5).
		Build()
	if err == nil || !strings.Contains(err.Error(), "sum to") {
		t.Errorf("err = %v, want probability-sum error", err)
	}
}

func TestValidateCatchesDeadEnd(t *testing.T) {
	_, err := NewBuilder("x").
		Initial("i").Activity("a", "act").Final("f").
		Transition("i", "f", 1).
		Build()
	if err == nil || !strings.Contains(err.Error(), "dead end") {
		t.Errorf("err = %v, want dead-end error", err)
	}
}

func TestValidateCatchesFinalOutgoing(t *testing.T) {
	_, err := NewBuilder("x").
		Initial("i").Final("f").
		Transition("i", "f", 1).
		Transition("f", "i", 1).
		Build()
	if err == nil || !strings.Contains(err.Error(), "final state") {
		t.Errorf("err = %v, want final-state error", err)
	}
}

func TestValidateCatchesSelfTransition(t *testing.T) {
	b := NewBuilder("x").Initial("i").Activity("a", "act").Final("f")
	b.Transition("i", "a", 1).Transition("a", "f", 0.5)
	b.chart.Transitions = append(b.chart.Transitions, &Transition{From: "a", To: "a", Prob: 0.5})
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "self-transition") {
		t.Errorf("err = %v, want self-transition error", err)
	}
}

func TestValidateCatchesUnreachableFinal(t *testing.T) {
	// i → a → i is invalid (a self-loops through i, final unreachable),
	// but a has outgoing edges and probabilities sum to 1.
	b := NewBuilder("x").Initial("i").Activity("a", "act").Final("f")
	b.Transition("i", "a", 1)
	b.chart.Transitions = append(b.chart.Transitions, &Transition{From: "a", To: "i", Prob: 1})
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("err = %v, want unreachable error", err)
	}
}

func TestValidateCatchesRecursiveNesting(t *testing.T) {
	inner := linearChart("outer") // same name as the outer chart
	_, err := NewBuilder("outer").
		Initial("i").Nested("n", inner).Final("f").
		Transition("i", "n", 1).
		Transition("n", "f", 1).
		Build()
	if err == nil || !strings.Contains(err.Error(), "nests itself") {
		t.Errorf("err = %v, want recursion error", err)
	}
}

func TestValidateCatchesActivityAndSubcharts(t *testing.T) {
	c := linearChart("x")
	c.States["A"].Subcharts = []*Chart{linearChart("sub")}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "both invokes") {
		t.Errorf("err = %v, want activity/subchart conflict", err)
	}
}

func TestValidateCatchesBadProb(t *testing.T) {
	_, err := NewBuilder("x").
		Initial("i").Final("f").
		Transition("i", "f", 0).
		Build()
	if err == nil || !strings.Contains(err.Error(), "probability") {
		t.Errorf("err = %v, want probability error", err)
	}
}

func TestValidateInvalidSubchartPropagates(t *testing.T) {
	bad := &Chart{Name: "bad", States: map[string]*State{}}
	_, err := NewBuilder("x").
		Initial("i").Nested("n", bad).Final("f").
		Transition("i", "n", 1).
		Transition("n", "f", 1).
		Build()
	if err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("err = %v, want nested error", err)
	}
}

func TestStateNamesOrder(t *testing.T) {
	c := branchLoopChart()
	names := c.StateNames()
	if names[0] != "init" || names[len(names)-1] != "done" {
		t.Errorf("StateNames = %v", names)
	}
	if names[1] != "check" || names[2] != "work" {
		t.Errorf("middle states not alphabetical: %v", names)
	}
}

func TestOutgoing(t *testing.T) {
	c := branchLoopChart()
	out := c.Outgoing("check")
	if len(out) != 2 {
		t.Fatalf("Outgoing(check) has %d transitions", len(out))
	}
	if out[0].To != "work" || out[1].To != "done" {
		t.Errorf("order not preserved: %v → %v", out[0].To, out[1].To)
	}
}

func TestActivitiesIncludesNested(t *testing.T) {
	sub := linearChart("sub")
	c := NewBuilder("x").
		Initial("i").
		Activity("b", "actB").
		Nested("n", sub).
		Final("f").
		Transition("i", "b", 1).
		Transition("b", "n", 1).
		Transition("n", "f", 1).
		MustBuild()
	got := c.Activities()
	want := []string{"actA", "actB"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Activities = %v, want %v", got, want)
	}
}

func TestECARendering(t *testing.T) {
	tr := &Transition{
		From: "a", To: "b", Event: "NewOrder_DONE", Cond: "PayByCreditCard",
		Actions: []Action{
			{Kind: ActionStart, Target: "CreditCardCheck"},
			{Kind: ActionSetFalse, Target: "PayByCreditCard"},
			{Kind: ActionRaise, Target: "Checked"},
		},
	}
	got := tr.ECA()
	want := "NewOrder_DONE[PayByCreditCard]/st!(CreditCardCheck);fs!(PayByCreditCard);Checked!"
	if got != want {
		t.Errorf("ECA = %q, want %q", got, want)
	}
	plain := &Transition{From: "a", To: "b"}
	if plain.ECA() != "" {
		t.Errorf("empty ECA = %q", plain.ECA())
	}
}
