package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero matrix with the given dimensions.
// It panics if either dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices. All rows must have the
// same length. The data is copied.
func MatrixFromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row 0 has %d columns, row %d has %d", c, i, len(row)))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows of m.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns of m.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set stores x at row i, column j.
func (m *Matrix) Set(i, j int, x float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = x
}

// Add adds x to the element at row i, column j.
func (m *Matrix) Add(i, j int, x float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += x
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage. Mutating the
// returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec returns m*v as a new vector.
// It panics if the dimensions are incompatible.
func (m *Matrix) MulVec(v Vector) Vector {
	if len(v) != m.cols {
		panic(fmt.Sprintf("linalg: %dx%d matrix times vector of length %d", m.rows, m.cols, len(v)))
	}
	out := NewVector(m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// VecMul returns v*m (row vector times matrix) as a new vector.
// It panics if the dimensions are incompatible.
func (m *Matrix) VecMul(v Vector) Vector {
	if len(v) != m.rows {
		panic(fmt.Sprintf("linalg: vector of length %d times %dx%d matrix", len(v), m.rows, m.cols))
	}
	out := NewVector(m.cols)
	for i := 0; i < m.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.Row(i)
		for j, x := range row {
			out[j] += vi * x
		}
	}
	return out
}

// Mul returns the matrix product m*n.
// It panics if the dimensions are incompatible.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.cols != n.rows {
		panic(fmt.Sprintf("linalg: %dx%d matrix times %dx%d matrix", m.rows, m.cols, n.rows, n.cols))
	}
	out := NewMatrix(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.Row(i)
		orow := out.Row(i)
		for kk, x := range mrow {
			if x == 0 {
				continue
			}
			nrow := n.Row(kk)
			for j, y := range nrow {
				orow[j] += x * y
			}
		}
	}
	return out
}

// Sub returns m - n as a new matrix.
// It panics if the dimensions differ.
func (m *Matrix) Sub(n *Matrix) *Matrix {
	if m.rows != n.rows || m.cols != n.cols {
		panic(fmt.Sprintf("linalg: subtracting %dx%d matrix from %dx%d matrix", n.rows, n.cols, m.rows, m.cols))
	}
	out := NewMatrix(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] - n.data[i]
	}
	return out
}

// Scale multiplies every element of m by alpha in place and returns m.
func (m *Matrix) Scale(alpha float64) *Matrix {
	for i := range m.data {
		m.data[i] *= alpha
	}
	return m
}

// RowSums returns the vector of per-row sums.
func (m *Matrix) RowSums() Vector {
	out := NewVector(m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, x := range m.Row(i) {
			s += x
		}
		out[i] = s
	}
	return out
}

// MaxAbs returns the maximum absolute element of m.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, x := range m.data {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders m with one bracketed row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString(Vector(m.Row(i)).String())
		if i < m.rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
