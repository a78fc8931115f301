package breaker

import (
	"testing"
	"time"
)

// TestBreakerTransitions walks every transition of the state machine with
// explicit timestamps: a 10s window, a trip threshold of 3, times in whole
// seconds after t0. Second 0 is never used, so a zero tripped/probe field
// means the zero time.
func TestBreakerTransitions(t *testing.T) {
	const (
		window = 10 * time.Second
		tripAt = 3
	)
	t0 := time.Unix(1_000, 0)
	tm := func(s int) time.Time {
		if s == 0 {
			return time.Time{}
		}
		return t0.Add(time.Duration(s) * time.Second)
	}

	type step struct {
		op      string // charge | settle | probe | close
		at      int
		to      State // Charge's result
		settled bool  // Settle's result
		// Expected breaker after the step.
		state   State
		trips   uint64
		window  int // InWindow at the step's time
		tripped int
		probe   int
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"faults degrade, the threshold trips and keeps the window", []step{
			{op: "charge", at: 1, to: Degraded, state: Degraded, window: 1},
			{op: "charge", at: 2, to: "", state: Degraded, window: 2},
			{op: "charge", at: 3, to: Quarantined, state: Quarantined, trips: 1, window: 3, tripped: 3},
		}},
		{"faults while quarantined enter the window and change nothing", []step{
			{op: "charge", at: 1, to: Degraded, state: Degraded, window: 1},
			{op: "charge", at: 2, to: "", state: Degraded, window: 2},
			{op: "charge", at: 3, to: Quarantined, state: Quarantined, trips: 1, window: 3, tripped: 3},
			{op: "charge", at: 4, to: "", state: Quarantined, trips: 1, window: 4, tripped: 3},
		}},
		{"old faults age out before the threshold", []step{
			{op: "charge", at: 1, to: Degraded, state: Degraded, window: 1},
			{op: "charge", at: 5, to: "", state: Degraded, window: 2},
			{op: "charge", at: 11, to: "", state: Degraded, window: 2}, // 1 fell out at 11
			{op: "charge", at: 12, to: Quarantined, state: Quarantined, trips: 1, window: 3, tripped: 12},
		}},
		{"probing clears the window and a fault re-trips at once", []step{
			{op: "charge", at: 1, to: Degraded, state: Degraded, window: 1},
			{op: "charge", at: 2, to: "", state: Degraded, window: 2},
			{op: "charge", at: 3, to: Quarantined, state: Quarantined, trips: 1, window: 3, tripped: 3},
			{op: "probe", at: 20, state: Probing, trips: 1, window: 0, tripped: 3, probe: 20},
			{op: "charge", at: 21, to: Quarantined, state: Quarantined, trips: 2, window: 1, tripped: 21},
		}},
		{"a clean probe closes and keeps the trip count", []step{
			{op: "charge", at: 1, to: Degraded, state: Degraded, window: 1},
			{op: "charge", at: 2, to: "", state: Degraded, window: 2},
			{op: "charge", at: 3, to: Quarantined, state: Quarantined, trips: 1, window: 3, tripped: 3},
			{op: "probe", at: 20, state: Probing, trips: 1, tripped: 3, probe: 20},
			{op: "close", at: 30, state: Healthy, trips: 1, tripped: 3},
			{op: "charge", at: 31, to: Degraded, state: Degraded, trips: 1, window: 1, tripped: 3},
		}},
		{"degraded settles only once the window has emptied", []step{
			{op: "charge", at: 1, to: Degraded, state: Degraded, window: 1},
			{op: "settle", at: 10, settled: false, state: Degraded, window: 1},
			{op: "settle", at: 11, settled: true, state: Healthy, window: 0},
		}},
		{"settle leaves every other state alone", []step{
			{op: "settle", at: 1, settled: false, state: Healthy},
			{op: "charge", at: 2, to: Degraded, state: Degraded, window: 1},
			{op: "charge", at: 3, to: "", state: Degraded, window: 2},
			{op: "charge", at: 4, to: Quarantined, state: Quarantined, trips: 1, window: 3, tripped: 4},
			{op: "settle", at: 100, settled: false, state: Quarantined, trips: 1, window: 0, tripped: 4},
			{op: "probe", at: 101, state: Probing, trips: 1, tripped: 4, probe: 101},
			{op: "settle", at: 200, settled: false, state: Probing, trips: 1, tripped: 4, probe: 101},
		}},
		{"close from degraded or quarantined resets the window", []step{
			{op: "charge", at: 1, to: Degraded, state: Degraded, window: 1},
			{op: "close", at: 2, state: Healthy},
			{op: "charge", at: 3, to: Degraded, state: Degraded, window: 1},
			{op: "charge", at: 4, to: "", state: Degraded, window: 2},
			{op: "charge", at: 5, to: Quarantined, state: Quarantined, trips: 1, window: 3, tripped: 5},
			{op: "close", at: 6, state: Healthy, trips: 1, tripped: 5},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := Breaker{State: Healthy}
			for i, s := range tc.steps {
				now := tm(s.at)
				switch s.op {
				case "charge":
					if got := b.Charge(now, window, tripAt); got != s.to {
						t.Fatalf("step %d: Charge@%d = %q, want %q", i, s.at, got, s.to)
					}
				case "settle":
					if got := b.Settle(now, window); got != s.settled {
						t.Fatalf("step %d: Settle@%d = %v, want %v", i, s.at, got, s.settled)
					}
				case "probe":
					b.Probe(now)
				case "close":
					b.Close()
				default:
					t.Fatalf("step %d: unknown op %q", i, s.op)
				}
				if b.State != s.state || b.Trips != s.trips {
					t.Fatalf("step %d (%s@%d): state %q trips %d, want %q trips %d",
						i, s.op, s.at, b.State, b.Trips, s.state, s.trips)
				}
				if !b.TrippedAt.Equal(tm(s.tripped)) || !b.ProbeStart.Equal(tm(s.probe)) {
					t.Fatalf("step %d (%s@%d): trippedAt %v probeStart %v, want %v / %v",
						i, s.op, s.at, b.TrippedAt, b.ProbeStart, tm(s.tripped), tm(s.probe))
				}
				if got := b.InWindow(now, window); got != s.window {
					t.Fatalf("step %d (%s@%d): %d faults in window, want %d", i, s.op, s.at, got, s.window)
				}
			}
		})
	}
}

// TestSplitMix64 pins the mixer: same-seed chaos schedules and port backoff
// jitter depend on it bit for bit.
func TestSplitMix64(t *testing.T) {
	if got := SplitMix64(0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("SplitMix64(0) = %#x, want 0xe220a8397b1dcdaf", got)
	}
}
