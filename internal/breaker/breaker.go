// Package breaker is the circuit-breaker state machine shared by the DPMU's
// per-vdev fault containment (internal/core/dpmu) and the packet I/O
// runtime's per-port containment (internal/runtime):
//
//	healthy → degraded → quarantined → probing → healthy
//
// A Breaker holds the state, the sliding fault window, the trip count and
// the trip and probe timestamps. It has no lock and no clock: each owner
// embeds it in a record guarded by its own leaf mutex and passes the time
// in. What differs per domain stays with the owner — the vdev side's probe
// budget and bypass rewiring, the port side's backoff, detach/reattach and
// ring-stall watchdog.
//
// The one fault-charging rule (Charge): every fault enters the window,
// whatever the state. A quarantined breaker stays quarantined; a probing
// one re-trips at once; otherwise a window holding the trip threshold
// trips, and a healthy breaker becomes degraded. A trip keeps the window.
package breaker

import "time"

// State is a breaker state. The string values are the wire spelling on
// every health surface.
type State string

const (
	// Healthy: no faults inside the current window.
	Healthy State = "healthy"
	// Degraded: faulting, but below the trip threshold.
	Degraded State = "degraded"
	// Quarantined: tripped; the owner contains the faulty unit.
	Quarantined State = "quarantined"
	// Probing: half-open; the owner lets a bounded trial through.
	Probing State = "probing"
)

// Breaker is one circuit breaker. Build it with State Healthy (or call
// Close); the zero State is not a valid state.
type Breaker struct {
	State      State
	Trips      uint64    // lifetime trips
	TrippedAt  time.Time // time of the last trip
	ProbeStart time.Time // time probing began; zero outside Probing
	window     []time.Time
}

// Charge records one fault at now against a sliding window of the given
// length and returns the state the breaker moved to, or "" if it stayed.
func (b *Breaker) Charge(now time.Time, window time.Duration, tripAt int) State {
	b.prune(now, window)
	b.window = append(b.window, now)
	switch {
	case b.State == Quarantined:
		return ""
	case b.State == Probing || len(b.window) >= tripAt:
		b.State = Quarantined
		b.Trips++
		b.TrippedAt = now
		b.ProbeStart = time.Time{}
		return Quarantined
	case b.State == Healthy:
		b.State = Degraded
		return Degraded
	}
	return ""
}

// Settle moves a degraded breaker whose window has emptied back to healthy,
// reporting whether it did.
func (b *Breaker) Settle(now time.Time, window time.Duration) bool {
	if b.State != Degraded {
		return false
	}
	b.prune(now, window)
	if len(b.window) > 0 {
		return false
	}
	b.State = Healthy
	return true
}

// Probe enters half-open probing at now with an empty window.
func (b *Breaker) Probe(now time.Time) {
	b.State = Probing
	b.ProbeStart = now
	b.window = b.window[:0]
}

// Close returns the breaker to healthy with an empty window. Trips are
// history and are kept.
func (b *Breaker) Close() {
	b.State = Healthy
	b.ProbeStart = time.Time{}
	b.window = b.window[:0]
}

// InWindow returns the number of faults inside the window ending at now.
func (b *Breaker) InWindow(now time.Time, window time.Duration) int {
	b.prune(now, window)
	return len(b.window)
}

func (b *Breaker) prune(now time.Time, window time.Duration) {
	cut := now.Add(-window)
	i := 0
	for i < len(b.window) && !b.window[i].After(cut) {
		i++
	}
	if i > 0 {
		b.window = append(b.window[:0], b.window[i:]...)
	}
}

// SplitMix64 is the standard 64-bit finalizer: one multiply-xor-shift chain
// turns a (seed, key, counter) mix into an effectively random draw without
// locking or a shared rand.Source. It seeds the port backoff jitter and the
// chaos fault schedules.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
