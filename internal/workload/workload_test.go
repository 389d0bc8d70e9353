package workload

import (
	"math"
	"testing"

	"performa/internal/spec"
)

func TestPaperEnvironment(t *testing.T) {
	env := PaperEnvironment()
	if env.K() != 3 {
		t.Fatalf("K = %d", env.K())
	}
	orb := env.Type(0)
	if orb.Name != ORB || orb.Kind != spec.Communication {
		t.Errorf("type 0 = %+v", orb)
	}
	// Failure ranking: app (daily) > engine (weekly) > orb (monthly).
	if !(env.Type(2).FailureRate > env.Type(1).FailureRate && env.Type(1).FailureRate > env.Type(0).FailureRate) {
		t.Error("failure-rate ranking wrong")
	}
	if env.Type(0).RepairRate != 0.1 {
		t.Errorf("repair rate = %v, want 0.1 (10-minute repairs)", env.Type(0).RepairRate)
	}
}

func TestEPWorkflowBuilds(t *testing.T) {
	env := PaperEnvironment()
	w := EPWorkflow(1)
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4: seven top-level execution states plus s_A.
	if got := m.Chain.N(); got != 8 {
		t.Errorf("EP CTMC has %d states, want 8", got)
	}
}

func TestEPVisitCounts(t *testing.T) {
	env := PaperEnvironment()
	m, err := spec.Build(EPWorkflow(1), env)
	if err != nil {
		t.Fatal(err)
	}
	p := EPBranchProbs
	wantVisits := map[string]float64{
		"NewOrder_S":          1,
		"CreditCardCheck_S":   p.PayByCreditCard,
		"Shipment_S":          (1 - p.PayByCreditCard) + p.PayByCreditCard*(1-p.CardProblem),
		"CreditCardPayment_S": p.PayByCreditCard * (1 - p.CardProblem),
		"Invoice_S":           1 - p.PayByCreditCard,
		"CheckPayment_S":      (1 - p.PayByCreditCard) / (1 - p.ReminderLoop),
		"Reminder_S":          (1 - p.PayByCreditCard) * p.ReminderLoop / (1 - p.ReminderLoop),
	}
	visits := m.ExpectedVisits()
	for i, name := range m.StateNames {
		want, ok := wantVisits[name]
		if !ok {
			continue
		}
		if math.Abs(visits[i]-want) > 1e-9 {
			t.Errorf("visits(%s) = %v, want %v", name, visits[i], want)
		}
	}
}

func TestEPTurnaround(t *testing.T) {
	env := PaperEnvironment()
	m, err := spec.Build(EPWorkflow(1), env)
	if err != nil {
		t.Fatal(err)
	}
	p := EPBranchProbs
	d := EPDurations
	shipR := math.Max(d["NotifyCustomer"], d["PickGoods"]+d["ShipGoods"])
	vShip := (1 - p.PayByCreditCard) + p.PayByCreditCard*(1-p.CardProblem)
	vCheck := (1 - p.PayByCreditCard) / (1 - p.ReminderLoop)
	want := d["NewOrder"] +
		p.PayByCreditCard*d["CreditCardCheck"] +
		vShip*shipR +
		p.PayByCreditCard*(1-p.CardProblem)*d["CreditCardPayment"] +
		(1-p.PayByCreditCard)*d["SendInvoice"] +
		vCheck*d["CheckPayment"] +
		vCheck*p.ReminderLoop*d["SendReminder"]
	if got := m.Turnaround(); math.Abs(got-want) > 1e-9 {
		t.Errorf("turnaround = %v, want %v", got, want)
	}
}

func TestEPExpectedRequests(t *testing.T) {
	env := PaperEnvironment()
	m, err := spec.Build(EPWorkflow(1), env)
	if err != nil {
		t.Fatal(err)
	}
	p := EPBranchProbs
	vShip := (1 - p.PayByCreditCard) + p.PayByCreditCard*(1-p.CardProblem)
	vCheck := (1 - p.PayByCreditCard) / (1 - p.ReminderLoop)
	// Automated executions: CreditCardCheck + 3 shipment activities +
	// CreditCardPayment + SendInvoice + CheckPayment + SendReminder.
	automated := p.PayByCreditCard + 3*vShip + p.PayByCreditCard*(1-p.CardProblem) +
		(1 - p.PayByCreditCard) + vCheck + vCheck*p.ReminderLoop
	interactive := 1.0 // NewOrder
	r := m.ExpectedRequests()
	wantEng := 3 * (automated + interactive)
	wantOrb := 2 * (automated + interactive)
	wantApp := 3 * automated
	if math.Abs(r[1]-wantEng) > 1e-9 {
		t.Errorf("engine requests = %v, want %v", r[1], wantEng)
	}
	if math.Abs(r[0]-wantOrb) > 1e-9 {
		t.Errorf("orb requests = %v, want %v", r[0], wantOrb)
	}
	if math.Abs(r[2]-wantApp) > 1e-9 {
		t.Errorf("app requests = %v, want %v", r[2], wantApp)
	}
}

func TestEPInteractiveActivitySkipsAppServer(t *testing.T) {
	w := EPWorkflow(1)
	if _, hasApp := w.Profiles["NewOrder"].Load[AppType]; hasApp {
		t.Error("interactive NewOrder should not load the application server")
	}
	if _, hasApp := w.Profiles["CreditCardCheck"].Load[AppType]; !hasApp {
		t.Error("automated activity should load the application server")
	}
}

func TestOrderWorkflowBuilds(t *testing.T) {
	env := PaperEnvironment()
	m, err := spec.Build(OrderWorkflow(2), env)
	if err != nil {
		t.Fatal(err)
	}
	if m.Turnaround() <= 0 {
		t.Errorf("turnaround = %v", m.Turnaround())
	}
	// Status poll loop: expected OrderStatus executions above 1.
	visits := m.ExpectedVisits()
	var statusVisits float64
	for i, name := range m.StateNames {
		if name == "Status_S" || name == "Status_S2" {
			statusVisits += visits[i]
		}
	}
	if statusVisits <= 1 {
		t.Errorf("status visits = %v, want > 1 (poll loop)", statusVisits)
	}
}

func TestLoanWorkflowBuilds(t *testing.T) {
	env := PaperEnvironment()
	m, err := spec.Build(LoanWorkflow(0.5), env)
	if err != nil {
		t.Fatal(err)
	}
	// Interactive-dominated: engine load must exceed app load.
	r := m.ExpectedRequests()
	if r[1] <= r[2] {
		t.Errorf("engine load %v should exceed app load %v", r[1], r[2])
	}
}

func TestBuiltin(t *testing.T) {
	for name, want := range map[string][]string{
		"ep": {"EP"}, "ORDER": {"Order"}, "loan": {"Loan"}, "mix": {"EP", "Order", "Loan"},
	} {
		flows := Builtin(name, 6)
		if len(flows) != len(want) {
			t.Fatalf("%s: %d workflows, want %d", name, len(flows), len(want))
		}
		var rate float64
		for i, w := range flows {
			if w.Name != want[i] {
				t.Errorf("%s: workflow %d is %s, want %s", name, i, w.Name, want[i])
			}
			rate += w.ArrivalRate
		}
		if math.Abs(rate-6) > 1e-12 {
			t.Errorf("%s: total arrival rate %v, want 6", name, rate)
		}
	}
	if flows := Builtin("nosuch", 6); flows != nil {
		t.Errorf("unknown workload gave %d workflows", len(flows))
	}
}
