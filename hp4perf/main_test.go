package main

import "testing"

func quick(t *testing.T, workload string, corrupt bool) *result {
	t.Helper()
	res, err := run(options{workload: workload, seed: 7, seconds: 1, scratch: t.TempDir(), corrupt: corrupt}, nil)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// A wrong expectation planted in the oracle must fail the run: the checker
// really compares every delivered frame.
func TestPlantedMismatchFails(t *testing.T) {
	res := quick(t, "slices-chan", true)
	if res.Correct {
		t.Fatal("run with a planted wrong expectation reported correct")
	}
	if res.Failed == 0 {
		t.Fatal("planted mismatches were not counted as failures")
	}
}

// Every workload's frames and writes match the reference. Loss is not
// checked here: it depends on the runner's speed (the race detector slows
// the switch several times over), and the benchmark reports it as failed.
func TestCleanRunsAreCorrect(t *testing.T) {
	for _, w := range []string{"slices-chan", "slices-udp", "churn", "mesh"} {
		res := quick(t, w, false)
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != 5 {
			t.Errorf("%s: %d metrics, want 5", w, len(res.Metrics))
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: metric %s not positive: %+v", w, name, m)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", seconds: 1, scratch: t.TempDir()}, nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
