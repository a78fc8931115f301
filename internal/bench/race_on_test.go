//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops items at random, so allocation counts stop being
// deterministic.
const raceEnabled = true
