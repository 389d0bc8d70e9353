package main

import (
	"bytes"
	"testing"

	"performa/internal/crossval"
)

// TestRunOutputIndependentOfWorkers pins that wfmscheck prints the same
// bytes whatever its worker count: seeds are reported in seed order, not
// in the order their checks finish. The run is the mutation self-test,
// `-systems 8 -seed 1 -mutate`, whose seeds disagree, so every kind of
// seed block is printed.
func TestRunOutputIndependentOfWorkers(t *testing.T) {
	fault, err := crossval.FaultByName("service-moment")
	if err != nil {
		t.Fatal(err)
	}
	opt := crossval.Options{Fault: fault}
	var outs [2]bytes.Buffer
	for k, workers := range []int{1, 3} {
		if code := run(&outs[k], 8, 1, workers, "", opt, crossval.Check, false, true, false); code != 0 {
			t.Fatalf("-workers %d: exit %d\n%s", workers, code, outs[k].String())
		}
	}
	if outs[0].String() != outs[1].String() {
		t.Errorf("-workers 1 and -workers 3 printed different output\n-workers 1:\n%s\n-workers 3:\n%s", outs[0].String(), outs[1].String())
	}
	if !bytes.Contains(outs[0].Bytes(), []byte("disagreement(s)")) {
		t.Errorf("the mutation run printed no disagreeing seed:\n%s", outs[0].String())
	}
}
