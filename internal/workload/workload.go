// Package workload provides the concrete workflow types used by the
// examples and benchmarks: the electronic-purchase (EP) workflow of the
// paper's Figures 3 and 4, a TPC-C-flavoured order-processing workflow, a
// loan-approval workflow with interactive activities, and their named
// mixes (Builtin). It also provides the server environment of the
// Section 5.2 worked example.
//
// The paper states that the numeric annotations of Figure 4 are
// "fictitious for mere illustration"; the values below are our
// documented choices, kept in one place so EXPERIMENTS.md can cite them.
package workload

import (
	"strings"

	"performa/internal/spec"
	"performa/internal/statechart"
)

// Server type names of the paper environment.
const (
	ORB        = "orb"    // communication server (fails ~monthly)
	EngineType = "engine" // workflow engine (fails ~weekly)
	AppType    = "appsrv" // application server (fails ~daily)
)

// PaperEnvironment returns the three-server-type environment of the
// Section 5.2 example. The time unit is minutes: failure rates are one
// per month / week / day, repairs take 10 minutes, and service times are
// a few milliseconds (expressed in minutes) with exponential moments.
func PaperEnvironment() *spec.Environment {
	mk := func(name string, kind spec.ServerKind, mttfMinutes, meanServiceMinutes float64) spec.ServerType {
		b, b2 := spec.ExpServiceMoments(meanServiceMinutes)
		return spec.ServerType{
			Name: name, Kind: kind,
			MeanService: b, ServiceSecondMoment: b2,
			FailureRate: 1 / mttfMinutes, RepairRate: 1.0 / 10,
		}
	}
	return spec.MustEnvironment(
		mk(ORB, spec.Communication, 43200, 0.0005),  // 30 ms per request
		mk(EngineType, spec.Engine, 10080, 0.001),   // 60 ms
		mk(AppType, spec.Application, 1440, 0.0015), // 90 ms
	)
}

// Canonical per-activity load vectors, following the request counts of
// the paper's Figure 1: an automated activity induces 3 requests at the
// workflow engine, 2 at the communication server, and 3 at the
// application server; an interactive activity runs on the client and
// skips the application server.
func automatedLoad() map[string]float64 {
	return map[string]float64{EngineType: 3, ORB: 2, AppType: 3}
}

func interactiveLoad() map[string]float64 {
	return map[string]float64{EngineType: 3, ORB: 2}
}

// profile builds an activity profile with the given mean duration.
func profile(name string, duration float64, load map[string]float64) spec.ActivityProfile {
	return spec.ActivityProfile{Name: name, MeanDuration: duration, Load: load}
}

// EPDurations documents the (fictitious, per the paper) mean activity
// durations of the EP workflow, in minutes.
var EPDurations = map[string]float64{
	"NewOrder":          5,
	"CreditCardCheck":   1,
	"NotifyCustomer":    2,
	"PickGoods":         10,
	"ShipGoods":         30,
	"CreditCardPayment": 1,
	"SendInvoice":       2,
	"CheckPayment":      60,
	"SendReminder":      2,
}

// EPBranchProbs documents the branching probabilities of the EP workflow.
var EPBranchProbs = struct {
	PayByCreditCard float64 // NewOrder → CreditCardCheck
	CardProblem     float64 // CreditCardCheck → termination
	ReminderLoop    float64 // CheckPayment → SendReminder
}{
	PayByCreditCard: 0.6,
	CardProblem:     0.1,
	ReminderLoop:    0.25,
}

// EPWorkflow builds the electronic-purchase workflow of Figures 3 and 4:
// an interactive order entry, a credit-card branch, a nested shipment
// state with two orthogonal subworkflows (customer notification in
// parallel with pick-and-ship delivery), a payment-mode split, and a
// payment-reminder loop. Its top-level CTMC has seven execution states
// plus the absorbing state, matching Figure 4.
func EPWorkflow(arrivalRate float64) *spec.Workflow {
	p := EPBranchProbs

	notify := statechart.NewBuilder("Notify_SC").
		Initial("N_INIT").
		Activity("Notify", "NotifyCustomer").
		Final("N_EXIT").
		Transition("N_INIT", "Notify", 1).
		Transition("Notify", "N_EXIT", 1).
		MustBuild()

	delivery := statechart.NewBuilder("Delivery_SC").
		Initial("D_INIT").
		Activity("Pick", "PickGoods").
		Activity("Ship", "ShipGoods").
		Final("D_EXIT").
		Transition("D_INIT", "Pick", 1).
		Transition("Pick", "Ship", 1).
		Transition("Ship", "D_EXIT", 1).
		MustBuild()

	// Probabilities out of the shipment join: the credit-card flow
	// reaches shipment with probability 0.6·(1−0.1) = 0.54, invoices
	// with 0.4; conditioned on reaching shipment these renormalize.
	reachCard := p.PayByCreditCard * (1 - p.CardProblem)
	reachInvoice := 1 - p.PayByCreditCard
	total := reachCard + reachInvoice

	chart := statechart.NewBuilder("EP").
		Initial("EP_INIT").
		InteractiveActivity("NewOrder_S", "NewOrder").
		Activity("CreditCardCheck_S", "CreditCardCheck").
		Nested("Shipment_S", notify, delivery).
		Activity("CreditCardPayment_S", "CreditCardPayment").
		Activity("Invoice_S", "SendInvoice").
		Activity("CheckPayment_S", "CheckPayment").
		Activity("Reminder_S", "SendReminder").
		Final("EP_EXIT_S").
		TransitionECA("EP_INIT", "NewOrder_S", 1, "", "", nil).
		TransitionECA("NewOrder_S", "CreditCardCheck_S", p.PayByCreditCard,
			"NewOrder_DONE", "PayByCreditCard", nil).
		TransitionECA("NewOrder_S", "Shipment_S", 1-p.PayByCreditCard,
			"NewOrder_DONE", "!PayByCreditCard", nil).
		TransitionECA("CreditCardCheck_S", "EP_EXIT_S", p.CardProblem,
			"CreditCardCheck_DONE", "CardProblem", nil).
		TransitionECA("CreditCardCheck_S", "Shipment_S", 1-p.CardProblem,
			"CreditCardCheck_DONE", "!CardProblem", nil).
		TransitionECA("Shipment_S", "CreditCardPayment_S", reachCard/total,
			"", "PayByCreditCard", nil).
		TransitionECA("Shipment_S", "Invoice_S", reachInvoice/total,
			"", "!PayByCreditCard", nil).
		Transition("CreditCardPayment_S", "EP_EXIT_S", 1).
		Transition("Invoice_S", "CheckPayment_S", 1).
		TransitionECA("CheckPayment_S", "Reminder_S", p.ReminderLoop,
			"CheckPayment_DONE", "!Paid", nil).
		TransitionECA("CheckPayment_S", "EP_EXIT_S", 1-p.ReminderLoop,
			"CheckPayment_DONE", "Paid", nil).
		Transition("Reminder_S", "CheckPayment_S", 1).
		MustBuild()

	profiles := map[string]spec.ActivityProfile{}
	interactive := map[string]bool{"NewOrder": true}
	for name, d := range EPDurations {
		load := automatedLoad()
		if interactive[name] {
			load = interactiveLoad()
		}
		profiles[name] = profile(name, d, load)
	}
	return &spec.Workflow{
		Name:        "EP",
		Chart:       chart,
		Profiles:    profiles,
		ArrivalRate: arrivalRate,
	}
}

// OrderWorkflow builds a TPC-C-flavoured order-processing workflow: the
// five TPC-C transaction types appear as activities of one workflow, with
// an order-status polling loop. Durations are in minutes.
func OrderWorkflow(arrivalRate float64) *spec.Workflow {
	chart := statechart.NewBuilder("Order").
		Initial("O_INIT").
		Activity("NewOrder_S", "TPCC_NewOrder").
		Activity("Payment_S", "TPCC_Payment").
		Activity("Status_S", "TPCC_OrderStatus").
		Activity("Status_S2", "TPCC_OrderStatus").
		Activity("Delivery_S", "TPCC_Delivery").
		Activity("Stock_S", "TPCC_StockLevel").
		Final("O_EXIT").
		Transition("O_INIT", "NewOrder_S", 1).
		Transition("NewOrder_S", "Stock_S", 0.1).
		Transition("NewOrder_S", "Payment_S", 0.9).
		Transition("Stock_S", "Payment_S", 1).
		Transition("Payment_S", "Status_S", 1).
		Transition("Status_S", "Status_S2", 0.3). // poll-again loop
		Transition("Status_S", "Delivery_S", 0.7).
		Transition("Status_S2", "Status_S", 1).
		Transition("Delivery_S", "O_EXIT", 1).
		MustBuild()
	profiles := map[string]spec.ActivityProfile{
		"TPCC_NewOrder":    profile("TPCC_NewOrder", 2, automatedLoad()),
		"TPCC_Payment":     profile("TPCC_Payment", 1, automatedLoad()),
		"TPCC_OrderStatus": profile("TPCC_OrderStatus", 0.5, map[string]float64{EngineType: 2, ORB: 1, AppType: 1}),
		"TPCC_Delivery":    profile("TPCC_Delivery", 5, automatedLoad()),
		"TPCC_StockLevel":  profile("TPCC_StockLevel", 0.5, map[string]float64{EngineType: 1, ORB: 1, AppType: 2}),
	}
	return &spec.Workflow{
		Name:        "Order",
		Chart:       chart,
		Profiles:    profiles,
		ArrivalRate: arrivalRate,
	}
}

// LoanWorkflow builds a loan-approval workflow dominated by interactive
// activities, the workload shape that stresses worklist management and
// engine load rather than application servers.
func LoanWorkflow(arrivalRate float64) *spec.Workflow {
	chart := statechart.NewBuilder("Loan").
		Initial("L_INIT").
		InteractiveActivity("Apply_S", "LoanApplication").
		Activity("Score_S", "CreditScoring").
		InteractiveActivity("Review_S", "ManualReview").
		Activity("Reject_S", "SendRejection").
		Activity("Disburse_S", "Disburse").
		Final("L_EXIT").
		Transition("L_INIT", "Apply_S", 1).
		Transition("Apply_S", "Score_S", 1).
		Transition("Score_S", "Disburse_S", 0.55).
		Transition("Score_S", "Reject_S", 0.2).
		Transition("Score_S", "Review_S", 0.25).
		Transition("Review_S", "Disburse_S", 0.6).
		Transition("Review_S", "Reject_S", 0.4).
		Transition("Reject_S", "L_EXIT", 1).
		Transition("Disburse_S", "L_EXIT", 1).
		MustBuild()
	profiles := map[string]spec.ActivityProfile{
		"LoanApplication": profile("LoanApplication", 15, interactiveLoad()),
		"CreditScoring":   profile("CreditScoring", 2, automatedLoad()),
		"ManualReview":    profile("ManualReview", 45, interactiveLoad()),
		"SendRejection":   profile("SendRejection", 1, automatedLoad()),
		"Disburse":        profile("Disburse", 3, automatedLoad()),
	}
	return &spec.Workflow{
		Name:        "Loan",
		Chart:       chart,
		Profiles:    profiles,
		ArrivalRate: arrivalRate,
	}
}

// Builtin returns the named built-in workload at total arrival rate
// rate: ep, order, loan, or mix (all three splitting the rate
// 50/30/20). The name is case-insensitive; an unknown name yields nil.
func Builtin(name string, rate float64) []*spec.Workflow {
	switch strings.ToLower(name) {
	case "ep":
		return []*spec.Workflow{EPWorkflow(rate)}
	case "order":
		return []*spec.Workflow{OrderWorkflow(rate)}
	case "loan":
		return []*spec.Workflow{LoanWorkflow(rate)}
	case "mix":
		return []*spec.Workflow{
			EPWorkflow(rate * 0.5),
			OrderWorkflow(rate * 0.3),
			LoanWorkflow(rate * 0.2),
		}
	}
	return nil
}
