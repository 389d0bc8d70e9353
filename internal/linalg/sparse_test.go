package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSparseBuildAndAccess(t *testing.T) {
	b := NewSparseBuilder(3)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3) // accumulates to 5
	b.Set(1, 1, 4)
	b.Add(2, 0, -1)
	s := b.Build()
	if s.N() != 3 || s.NNZ() != 3 {
		t.Fatalf("N=%d NNZ=%d", s.N(), s.NNZ())
	}
	if s.At(0, 1) != 5 || s.At(1, 1) != 4 || s.At(2, 0) != -1 {
		t.Errorf("values wrong: %v %v %v", s.At(0, 1), s.At(1, 1), s.At(2, 0))
	}
	if s.At(0, 0) != 0 {
		t.Errorf("absent entry = %v", s.At(0, 0))
	}
}

func TestSparseZeroEntriesDropped(t *testing.T) {
	b := NewSparseBuilder(2)
	b.Add(0, 0, 0)
	b.Add(0, 1, 1)
	b.Add(0, 1, -1) // cancels
	s := b.Build()
	if s.NNZ() != 0 {
		t.Errorf("NNZ = %d, want 0", s.NNZ())
	}
}

func TestSparseRowIteration(t *testing.T) {
	b := NewSparseBuilder(2)
	b.Add(0, 1, 7)
	b.Add(0, 0, 3)
	s := b.Build()
	var cols []int
	s.Row(0, func(j int, v float64) { cols = append(cols, j) })
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 1 {
		t.Errorf("row cols = %v (want sorted)", cols)
	}
}

func TestSparsePanics(t *testing.T) {
	b := NewSparseBuilder(2)
	s := b.Build()
	for i, f := range []func(){
		func() { NewSparseBuilder(-1) },
		func() { b.Add(2, 0, 1) },
		func() { b.Set(0, -1, 1) },
		func() { s.At(2, 0) },
		func() { s.MulVec(Vector{1}) },
		func() { s.VecMul(Vector{1, 2, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func randomSparse(rng *rand.Rand, n int, density float64) (*Sparse, *Matrix) {
	b := NewSparseBuilder(n)
	d := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				v := rng.NormFloat64()
				b.Add(i, j, v)
				d.Set(i, j, v)
			}
		}
	}
	return b.Build(), d
}

func TestQuickSparseMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		s, d := randomSparse(rng, n, 0.4)
		v := NewVector(n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		sv, dv := s.MulVec(v), mulVec(d, v)
		for i := range sv {
			if !almostEqual(sv[i], dv[i], 1e-12) {
				return false
			}
		}
		svm, dvm := s.VecMul(v), vecMul(v, d)
		for i := range svm {
			if !almostEqual(svm[i], dvm[i], 1e-12) {
				return false
			}
		}
		// Dense round trip.
		back := s.Dense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if back.At(i, j) != d.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBuildCSRMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		sb := NewSparseBuilder(n)
		entries := make([][]float64, n)
		for i := range entries {
			entries[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					x := rng.NormFloat64()
					entries[i][j] = x
					sb.Set(i, j, x)
				}
			}
		}
		want := sb.Build()
		got := BuildCSR(n, func(i int, emit func(j int, v float64)) {
			// Emit in descending column order to exercise the row sort.
			for j := n - 1; j >= 0; j-- {
				if entries[i][j] != 0 {
					emit(j, entries[i][j])
				}
			}
		})
		if got.N() != want.N() || got.NNZ() != want.NNZ() {
			t.Fatalf("trial %d: shape (%d, %d nnz) != builder (%d, %d nnz)",
				trial, got.N(), got.NNZ(), want.N(), want.NNZ())
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("trial %d: at(%d,%d) = %v, builder %v", trial, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestBuildCSRMergesDuplicateColumns(t *testing.T) {
	s := BuildCSR(2, func(i int, emit func(j int, v float64)) {
		if i == 0 {
			emit(1, 2)
			emit(1, 3)
			emit(0, -5)
		}
	})
	if got := s.At(0, 1); got != 5 {
		t.Fatalf("duplicate emits: at(0,1) = %v, want 5", got)
	}
	if got := s.At(0, 0); got != -5 {
		t.Fatalf("at(0,0) = %v, want -5", got)
	}
	if s.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 after merging", s.NNZ())
	}
}

func TestSparseTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		s, d := randomSparse(r, n, 0.35)
		st := s.Transpose()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if st.At(i, j) != d.At(j, i) {
					return false
				}
			}
		}
		// Transposing twice must give back the original entries.
		back := st.Transpose()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if back.At(i, j) != s.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
