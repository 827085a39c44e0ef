package paper

import (
	"context"
	"testing"
)

// E12: inductance-aware repeater insertion uses no more repeaters, and
// ignoring L when choosing the count costs delay on the real line.
func TestRepeaterInsertionExperiment(t *testing.T) {
	res, err := RepeaterInsertion(context.Background(), extractor(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.RLC.N > res.RC.N {
		t.Errorf("RLC optimum n=%d exceeds RC optimum n=%d", res.RLC.N, res.RC.N)
	}
	if res.RC.N <= 1 {
		t.Errorf("RC optimum n=%d not interior", res.RC.N)
	}
	if res.RCPenaltyPct < 0 {
		t.Errorf("negative penalty %.2f%% — the optimum search is broken", res.RCPenaltyPct)
	}
}

// E13: bus noise magnitudes are plausible and the storm exceeds the
// single-aggressor case.
func TestBusNoiseExperiment(t *testing.T) {
	res, err := BusNoise(context.Background(), extractor(t))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.PeakAdjacent > 0.01 && res.PeakAdjacent < 0.5) {
		t.Errorf("adjacent noise %.4f V out of range", res.PeakAdjacent)
	}
	if !(res.PeakStorm > res.PeakAdjacent) {
		t.Errorf("storm noise %.4f not above single-aggressor %.4f", res.PeakStorm, res.PeakAdjacent)
	}
}
