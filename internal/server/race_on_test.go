//go:build race

package server

// raceEnabled skips the pooled-buffer allocation pins: under the race
// detector sync.Pool drops a random share of what it is handed back.
const raceEnabled = true
