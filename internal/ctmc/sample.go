package ctmc

import (
	"fmt"

	"performa/internal/dist"
)

// SampleTurnaround draws one turnaround time by walking the chain from
// state 0 to absorption with exponentially distributed residence times —
// the Monte-Carlo counterpart of TurnaroundCDF, used to
// cross-validate the uniformization series. maxSteps guards against
// practically non-terminating chains (0 means 10 million).
func SampleTurnaround(c *Chain, rng *dist.RNG, maxSteps int) (float64, error) {
	if maxSteps <= 0 {
		maxSteps = 10_000_000
	}
	abs := c.Absorbing()
	state := 0
	var total float64
	for step := 0; step < maxSteps; step++ {
		if state == abs {
			return total, nil
		}
		total += rng.Exp(1 / c.H[state])
		state = c.Next(state, rng.Float64())
	}
	return 0, fmt.Errorf("ctmc: sample walk exceeded %d steps without absorbing", maxSteps)
}
