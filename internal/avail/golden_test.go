package avail

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// harshParams gives every type a per-server unavailability u (rates
// u/(1−u) and 1), cycling through us: the stiff chains whose tail
// entries span many orders of magnitude.
func harshParams(replicas []int, us ...float64) []TypeParams {
	params := make([]TypeParams, len(replicas))
	for i, y := range replicas {
		u := us[i%len(us)]
		params[i] = TypeParams{Replicas: y, FailureRate: u / (1 - u), RepairRate: 1}
	}
	return params
}

// TestJointSteadyStateGolden pins Evaluate's joint distribution bit for
// bit: the SHA-256 of the Float64bits of every StateProbs entry and of
// Unavailability, on joint chains of up to 512 states under both
// disciplines, with frozen types (λ = 0, Y = 0) and with more than four
// types. A change of solver or of summation order moves a digest.
func TestJointSteadyStateGolden(t *testing.T) {
	neverFails := paperParams(3, 2, 3)
	neverFails[1].FailureRate = 0
	cases := []struct {
		name       string
		params     []TypeParams
		discipline RepairDiscipline
		states     int
		digest     string
	}{
		{"paper-111", paperParams(1, 1, 1), IndependentRepair, 8, "4623bad5889610a9c34f0c0b6e32fb7cf048afc7541996a192e101c48e5890ab"},
		{"paper-223", paperParams(2, 2, 3), IndependentRepair, 36, "c66c7e7e17c532d6d219fda6f0f5eabf9b668687a6f4ca99afdba631e9dda1ef"},
		{"paper-444", paperParams(4, 4, 4), IndependentRepair, 125, "e509ea82181a005141f54ce09af04b3391bc882860e34060eb74456673dae941"},
		{"paper-777", paperParams(7, 7, 7), IndependentRepair, 512, "2c9e91024550790d4cb6938ddc7f21cbb7f678774be59b3f8e1ad06a9c362eb5"},
		{"paper-223-crew", paperParams(2, 2, 3), SingleCrew, 36, "28d7f162f84a181c793e2ea35059ae9496fb59fa8f0d7652d36df1c63bfdb051"},
		{"paper-777-crew", paperParams(7, 7, 7), SingleCrew, 512, "a710eb2b9840f5c480aa4865535c9a6dc04b14e25f903f8c9c7d763bab87afff"},
		{"paper-536-crew", paperParams(5, 3, 6), SingleCrew, 168, "65abb632a4a1dae986e6b58c1501c89a090570d210c9870621c58d573aa05a85"},
		{"never-fails", neverFails, IndependentRepair, 48, "6ea26e40e87c084c28c3c4c85a0bc9b5d7c1a7d85c5787d7b54996e6c88b19cc"},
		{"no-replicas-crew", paperParams(3, 0, 4), SingleCrew, 20, "f7c24515f58332641d80ff99bac0d0aaa0135015fc7c01fe443e88e684f42513"},
		{"harsh-777", harshParams([]int{7, 7, 7}, 0.30, 0.40, 0.45), IndependentRepair, 512, "03d9a32baee73b049e3005a1fe5365159f267ea6a3cad084e4b4e86457ebb84f"},
		{"five-types", harshParams([]int{3, 3, 1, 3, 1}, 0.05, 0.2, 0.4), IndependentRepair, 256, "e7f57966edbe78c94c91b22215451bce39ba02c5d410eb2b959a37601fa42259"},
		{"six-types-crew", harshParams([]int{1, 2, 1, 3, 1, 1}, 0.1, 0.3), SingleCrew, 192, "146c27e309e28db74996da70e247f3cd235e6bc2156852bf9e12e755396f1f00"},
	}
	for _, c := range cases {
		rep, err := Evaluate(c.params, c.discipline)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rep.StateProbs) != c.states {
			t.Fatalf("%s: %d states, want %d", c.name, len(rep.StateProbs), c.states)
		}
		h := sha256.New()
		var buf [8]byte
		for _, v := range append(rep.StateProbs.Clone(), rep.Unavailability) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.digest)
		}
	}
}
