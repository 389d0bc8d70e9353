//go:build race

package sensitivity

// raceEnabled skips the allocation pin: the race detector's
// instrumentation adds allocations the pin does not count.
const raceEnabled = true
