package wfnet

import (
	"math/bits"

	"performa/internal/ctmc"
	"performa/internal/wfmserr"
)

// Result reports the expected-execution-time computation over a net's
// reachable marking graph.
type Result struct {
	// Mean is the expected execution time: the mean absorption time of
	// the marking-graph CTMC from the initial marking.
	Mean float64
	// Markings counts reachable markings (the CTMC's states).
	Markings int
	// Tangible counts markings in which time passes; the rest are
	// vanishing (resolved by immediate transitions in zero time).
	Tangible int
}

// Expected computes the exact expected execution time of the net by
// enumerating its reachable marking graph and solving the absorption
// time of the induced CTMC. The net must be safe and weakly sound along
// every reachable path: an unsafe marking (two tokens on one place), a
// deadlock, or a completion that leaves tokens behind is reported as a
// typed CodeInvalidModel error; marking-count growth beyond the budget
// is a typed CodeStateSpaceTooLarge error.
func Expected(n *Net, budget wfmserr.Budget) (*Result, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	words := (n.Places() + 63) / 64

	mark := make([]uint64, words)
	setBit(mark, n.Initial)

	// The marking graph is collected directly as an absorbing chain:
	// one arc list per marking and its mean residence, zero for
	// vanishing markings.
	ids := map[string]int{markKey(mark): 0}
	markings := [][]uint64{append([]uint64(nil), mark...)}
	graph := ctmc.NewChain(1)
	final, tangible := -1, 0

	for i := 0; i < len(markings); i++ {
		m := markings[i]
		if hasBit(m, n.Final) {
			if popcount(m) != 1 {
				return nil, wfmserr.New(wfmserr.CodeInvalidModel, "wfnet",
					"net is unsound: completion leaves tokens behind (improper completion)").
					With("marking", markingString(n, m))
			}
			final = i
			continue // absorbing: no residence, no successors
		}
		// Enabled transitions under m.
		var enabled []int
		firstImmediate := -1
		for ti := range n.Transitions {
			t := &n.Transitions[ti]
			ok := true
			for _, p := range t.In {
				if !hasBit(m, p) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			enabled = append(enabled, ti)
			if t.Immediate() && firstImmediate < 0 {
				firstImmediate = ti
			}
		}
		if len(enabled) == 0 {
			return nil, wfmserr.New(wfmserr.CodeInvalidModel, "wfnet",
				"net is unsound: deadlock (no transition enabled)").
				With("marking", markingString(n, m))
		}

		var fire []int
		var probs []float64
		if firstImmediate >= 0 {
			// Vanishing marking: fire the free-choice cluster of the
			// lowest-indexed enabled immediate. Free-choiceness makes the
			// net confusion-free, so the order in which independent
			// clusters resolve cannot change the distribution over
			// tangible markings — picking the first is just a
			// deterministic tie-break.
			ref := &n.Transitions[firstImmediate]
			var wsum float64
			for _, ti := range enabled {
				t := &n.Transitions[ti]
				if t.Immediate() && samePlaceSet(t.In, ref.In) {
					fire = append(fire, ti)
					wsum += t.Weight
				}
			}
			for _, ti := range fire {
				probs = append(probs, n.Transitions[ti].Weight/wsum)
			}
		} else {
			// Tangible marking: the enabled timed transitions race.
			var rsum float64
			for _, ti := range enabled {
				rsum += n.Transitions[ti].Rate
			}
			fire = enabled
			for _, ti := range enabled {
				probs = append(probs, n.Transitions[ti].Rate/rsum)
			}
			graph.H[i] = 1 / rsum
			tangible++
		}

		for fi, ti := range fire {
			t := &n.Transitions[ti]
			next := append([]uint64(nil), m...)
			for _, p := range t.In {
				clearBit(next, p)
			}
			for _, p := range t.Out {
				if hasBit(next, p) {
					return nil, wfmserr.New(wfmserr.CodeInvalidModel, "wfnet",
						"net is unsafe: firing %q puts a second token on place %q",
						t.Name, n.PlaceNames[p]).With("marking", markingString(n, m))
				}
				setBit(next, p)
			}
			key := markKey(next)
			j, seen := ids[key]
			if !seen {
				j = len(markings)
				if err := budget.CheckStates("wfnet", j+1); err != nil {
					return nil, wfmserr.Wrap(err, wfmserr.CodeOf(err), "wfnet",
						"marking graph exceeds the state budget")
				}
				ids[key] = j
				markings = append(markings, next)
				graph.Arcs = append(graph.Arcs, nil)
				graph.H = append(graph.H, 0)
			}
			graph.AddArc(i, j, probs[fi])
		}
	}

	if final < 0 {
		return nil, wfmserr.New(wfmserr.CodeInvalidModel, "wfnet",
			"net is unsound: the final marking is unreachable")
	}
	// The chain's absorbing state is its last: append the artificial
	// s_A and let the final marking enter it in zero time.
	graph.Arcs = append(graph.Arcs, nil)
	graph.H = append(graph.H, 0)
	graph.AddArc(final, len(markings), 1)

	// Weak soundness: every reachable marking must be able to reach the
	// final marking (otherwise the expected time diverges).
	if bad := graph.Stuck(); bad >= 0 {
		return nil, wfmserr.New(wfmserr.CodeInvalidModel, "wfnet",
			"net is unsound: a reachable marking cannot reach completion").
			With("marking", markingString(n, markings[bad]))
	}

	tau, err := graph.Absorb(graph.H)
	if err != nil {
		return nil, err
	}
	return &Result{Mean: tau[0], Markings: len(markings), Tangible: tangible}, nil
}

// ExpectedDefault computes Expected under the process-wide budget.
func ExpectedDefault(n *Net) (*Result, error) {
	return Expected(n, wfmserr.Default)
}

// bitset helpers over []uint64 markings.

func setBit(m []uint64, p int)      { m[p/64] |= 1 << (uint(p) % 64) }
func clearBit(m []uint64, p int)    { m[p/64] &^= 1 << (uint(p) % 64) }
func hasBit(m []uint64, p int) bool { return m[p/64]&(1<<(uint(p)%64)) != 0 }

func popcount(m []uint64) int {
	total := 0
	for _, w := range m {
		total += bits.OnesCount64(w)
	}
	return total
}

func markKey(m []uint64) string {
	b := make([]byte, 8*len(m))
	for i, w := range m {
		for j := 0; j < 8; j++ {
			b[8*i+j] = byte(w >> (8 * uint(j)))
		}
	}
	return string(b)
}

// markingString renders a marking's place names for error details.
func markingString(n *Net, m []uint64) string {
	s := "{"
	first := true
	for p := 0; p < n.Places(); p++ {
		if hasBit(m, p) {
			if !first {
				s += ", "
			}
			s += n.PlaceNames[p]
			first = false
		}
	}
	return s + "}"
}
