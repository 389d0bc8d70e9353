package linalg

import (
	"fmt"
	"sort"
)

// Sparse is a square sparse matrix in compressed-sparse-row form. It is
// immutable after construction; build one with a SparseBuilder. The
// availability and workflow CTMCs of large configurations have thousands
// of states with a handful of transitions each, where dense O(n²) storage
// and O(n³) solves stop being viable.
type Sparse struct {
	n      int
	rowPtr []int
	colIdx []int
	val    []float64
	diag   []float64 // cached diagonal (zero when absent)
}

// SparseBuilder accumulates entries for a Sparse matrix. Duplicate
// (i, j) entries are summed.
type SparseBuilder struct {
	n       int
	entries map[[2]int]float64
}

// NewSparseBuilder returns a builder for an n-by-n matrix.
func NewSparseBuilder(n int) *SparseBuilder {
	if n < 0 {
		panic(fmt.Sprintf("linalg: invalid sparse dimension %d", n))
	}
	return &SparseBuilder{n: n, entries: make(map[[2]int]float64)}
}

// Add accumulates x into entry (i, j).
func (b *SparseBuilder) Add(i, j int, x float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("linalg: sparse index (%d,%d) out of range for %dx%d matrix", i, j, b.n, b.n))
	}
	if x == 0 {
		return
	}
	b.entries[[2]int{i, j}] += x
}

// Set stores x at entry (i, j), replacing any accumulated value.
func (b *SparseBuilder) Set(i, j int, x float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("linalg: sparse index (%d,%d) out of range for %dx%d matrix", i, j, b.n, b.n))
	}
	b.entries[[2]int{i, j}] = x
}

// Build freezes the builder into a Sparse matrix.
func (b *SparseBuilder) Build() *Sparse {
	type entry struct {
		i, j int
		v    float64
	}
	list := make([]entry, 0, len(b.entries))
	for k, v := range b.entries {
		if v != 0 {
			list = append(list, entry{k[0], k[1], v})
		}
	}
	sort.Slice(list, func(a, c int) bool {
		if list[a].i != list[c].i {
			return list[a].i < list[c].i
		}
		return list[a].j < list[c].j
	})
	s := &Sparse{
		n:      b.n,
		rowPtr: make([]int, b.n+1),
		colIdx: make([]int, len(list)),
		val:    make([]float64, len(list)),
		diag:   make([]float64, b.n),
	}
	for idx, e := range list {
		s.colIdx[idx] = e.j
		s.val[idx] = e.v
		s.rowPtr[e.i+1]++
		if e.i == e.j {
			s.diag[e.i] = e.v
		}
	}
	for i := 0; i < b.n; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	return s
}

// BuildCSR constructs an n-by-n CSR matrix by asking row(i) for the
// entries of each row in order, i = 0..n-1. Entries are emitted in any
// column order; duplicates within a row are summed and zeros dropped.
// This is the lazy-generation path: callers stream rows straight out of
// a model (e.g. a mixed-radix state encoder) without materializing a
// dense matrix or an intermediate entry map, so construction is
// O(nnz log rowlen) time and O(nnz) memory.
func BuildCSR(n int, row func(i int, emit func(j int, v float64))) *Sparse {
	if n < 0 {
		panic(fmt.Sprintf("linalg: invalid sparse dimension %d", n))
	}
	s := &Sparse{
		n:      n,
		rowPtr: make([]int, n+1),
		diag:   make([]float64, n),
	}
	// Scratch for the row under construction, reused across rows.
	cols := make([]int, 0, 16)
	vals := make([]float64, 0, 16)
	for i := 0; i < n; i++ {
		cols, vals = cols[:0], vals[:0]
		row(i, func(j int, v float64) {
			if j < 0 || j >= n {
				panic(fmt.Sprintf("linalg: sparse index (%d,%d) out of range for %dx%d matrix", i, j, n, n))
			}
			if v == 0 {
				return
			}
			cols = append(cols, j)
			vals = append(vals, v)
		})
		if len(cols) > 1 {
			sort.Sort(&rowSorter{cols, vals})
		}
		// Merge duplicates, drop entries that cancel to zero.
		for k := 0; k < len(cols); {
			j, v := cols[k], vals[k]
			k++
			for k < len(cols) && cols[k] == j {
				v += vals[k]
				k++
			}
			if v == 0 {
				continue
			}
			s.colIdx = append(s.colIdx, j)
			s.val = append(s.val, v)
			if i == j {
				s.diag[i] = v
			}
		}
		s.rowPtr[i+1] = len(s.colIdx)
	}
	return s
}

// rowSorter sorts one row's (column, value) pairs by column.
type rowSorter struct {
	cols []int
	vals []float64
}

func (r *rowSorter) Len() int           { return len(r.cols) }
func (r *rowSorter) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r *rowSorter) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// Transpose returns sᵀ in CSR form, in O(n + nnz) time via a counting
// pass over the column indices.
func (s *Sparse) Transpose() *Sparse {
	t := &Sparse{
		n:      s.n,
		rowPtr: make([]int, s.n+1),
		colIdx: make([]int, len(s.colIdx)),
		val:    make([]float64, len(s.val)),
		diag:   append([]float64(nil), s.diag...),
	}
	for _, j := range s.colIdx {
		t.rowPtr[j+1]++
	}
	for i := 0; i < s.n; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := append([]int(nil), t.rowPtr[:s.n]...)
	for i := 0; i < s.n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			j := s.colIdx[k]
			t.colIdx[next[j]] = i
			t.val[next[j]] = s.val[k]
			next[j]++
		}
	}
	return t
}

// Diag returns the cached diagonal. The returned slice is shared;
// treat it as read-only.
func (s *Sparse) Diag() []float64 { return s.diag }

// N returns the matrix dimension.
func (s *Sparse) N() int { return s.n }

// NNZ returns the number of stored nonzeros.
func (s *Sparse) NNZ() int { return len(s.val) }

// At returns the entry at (i, j) (zero when absent). O(log row-length).
func (s *Sparse) At(i, j int) float64 {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		panic(fmt.Sprintf("linalg: sparse index (%d,%d) out of range for %dx%d matrix", i, j, s.n, s.n))
	}
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	k := lo + sort.SearchInts(s.colIdx[lo:hi], j)
	if k < hi && s.colIdx[k] == j {
		return s.val[k]
	}
	return 0
}

// Row iterates the nonzeros of row i.
func (s *Sparse) Row(i int, fn func(j int, v float64)) {
	for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
		fn(s.colIdx[k], s.val[k])
	}
}

// MulVec returns s*v.
func (s *Sparse) MulVec(v Vector) Vector {
	if len(v) != s.n {
		panic(fmt.Sprintf("linalg: %dx%d sparse matrix times vector of length %d", s.n, s.n, len(v)))
	}
	out := NewVector(s.n)
	for i := 0; i < s.n; i++ {
		var sum float64
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			sum += s.val[k] * v[s.colIdx[k]]
		}
		out[i] = sum
	}
	return out
}

// VecMul returns v*s (row vector times matrix).
func (s *Sparse) VecMul(v Vector) Vector {
	if len(v) != s.n {
		panic(fmt.Sprintf("linalg: vector of length %d times %dx%d sparse matrix", len(v), s.n, s.n))
	}
	out := NewVector(s.n)
	for i := 0; i < s.n; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			out[s.colIdx[k]] += vi * s.val[k]
		}
	}
	return out
}

// Dense converts s to a dense matrix (for tests and small systems).
func (s *Sparse) Dense() *Matrix {
	m := NewMatrix(s.n, s.n)
	for i := 0; i < s.n; i++ {
		s.Row(i, func(j int, v float64) { m.Set(i, j, v) })
	}
	return m
}
