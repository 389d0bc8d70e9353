//go:build !race

package sensitivity

const raceEnabled = false
