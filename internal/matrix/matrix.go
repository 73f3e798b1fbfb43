// Package matrix implements dense linear algebra over the finite fields in
// internal/gf. It provides exactly the operations the coding layers need:
// rank, reduced row-echelon form, inversion, and linear solving, all via
// in-place Gaussian elimination.
//
// Elements are uint16 regardless of field, matching gf.Field. Matrices are
// small (network-coding generations are at most a few hundred symbols), so
// the implementation favours clarity and determinism over blocking or
// cache tricks; the hot path for bulk payload data lives in internal/gf,
// not here.
package matrix

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"ncast/internal/gf"
)

// ErrSingular is returned when an operation requires an invertible matrix
// but the input is rank-deficient.
var ErrSingular = errors.New("matrix: singular matrix")

// ErrNoSolution is returned by Solve when the system is inconsistent.
var ErrNoSolution = errors.New("matrix: no solution")

// Matrix is a dense rows×cols matrix over a finite field.
type Matrix struct {
	f    gf.Field
	rows int
	cols int
	data []uint16 // row-major
}

// New returns a zero rows×cols matrix over field f.
func New(f gf.Field, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{f: f, rows: rows, cols: cols, data: make([]uint16, rows*cols)}
}

// Identity returns the n×n identity matrix over field f.
func Identity(f gf.Field, n int) *Matrix {
	m := New(f, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(f gf.Field, rows [][]uint16) *Matrix {
	if len(rows) == 0 {
		return New(f, 0, 0)
	}
	m := New(f, len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("matrix: ragged row %d: len %d, want %d", i, len(r), m.cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Random returns a rows×cols matrix with uniformly random entries.
func Random(f gf.Field, rows, cols int, r *rand.Rand) *Matrix {
	m := New(f, rows, cols)
	for i := range m.data {
		m.data[i] = f.Rand(r)
	}
	return m
}

// Field returns the field the matrix is defined over.
func (m *Matrix) Field() gf.Field { return m.f }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) uint16 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v uint16) { m.data[i*m.cols+j] = v }

// Row returns row i as a mutable slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []uint16 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.f, m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have identical shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if o.data[i] != v {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%3d", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Mul returns m×o. It panics on a dimension mismatch.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: mul dimension mismatch %dx%d × %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	p := New(m.f, m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		for l := 0; l < m.cols; l++ {
			a := m.At(i, l)
			if a == 0 {
				continue
			}
			orow := o.Row(l)
			prow := p.Row(i)
			for j, b := range orow {
				if b != 0 {
					prow[j] = m.f.Add(prow[j], m.f.Mul(a, b))
				}
			}
		}
	}
	return p
}

// MulVec returns m×v for a column vector v of length Cols.
func (m *Matrix) MulVec(v []uint16) []uint16 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("matrix: vec length %d, want %d", len(v), m.cols))
	}
	out := make([]uint16, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var acc uint16
		for j, a := range row {
			if a != 0 && v[j] != 0 {
				acc = m.f.Add(acc, m.f.Mul(a, v[j]))
			}
		}
		out[i] = acc
	}
	return out
}

// addMulRowFrom adds c times row src to row dst, starting at column from.
// Elimination always knows the columns left of the pivot are zero in both
// rows, so operating on the suffix keeps row updates proportional to the
// live part of the row.
func (m *Matrix) addMulRowFrom(dst, src, from int, c uint16) {
	d := m.Row(dst)[from:]
	for j, v := range m.Row(src)[from:] {
		d[j] = m.f.Add(d[j], m.f.Mul(c, v))
	}
}

// swapRows exchanges rows i and j.
func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

// REF reduces the matrix in place to (unreduced) row-echelon form and
// returns the rank and the pivot column of each of the first rank rows.
// Only rows below the pivot row are eliminated, and every row update runs
// on the suffix starting at the pivot column, so forward elimination does
// roughly half the work of full RREF maintenance; pair with BackSub when
// the reduced form is needed.
func (m *Matrix) REF() (rank int, pivots []int) {
	pivots = make([]int, 0, min(m.rows, m.cols))
	r := 0
	for c := 0; c < m.cols && r < m.rows; c++ {
		// Find a pivot in column c at or below row r.
		p := -1
		for i := r; i < m.rows; i++ {
			if m.At(i, c) != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		m.swapRows(r, p)
		if v := m.At(r, c); v != 1 {
			inv, row := m.f.Inv(v), m.Row(r)
			for j := c; j < m.cols; j++ {
				row[j] = m.f.Mul(row[j], inv)
			}
		}
		for i := r + 1; i < m.rows; i++ {
			if v := m.At(i, c); v != 0 {
				m.addMulRowFrom(i, r, c, v)
			}
		}
		pivots = append(pivots, c)
		r++
	}
	return r, pivots
}

// BackSub back-substitutes a matrix left in row-echelon form by REF,
// completing the reduction to RREF. pivots must be REF's return value.
// Pivot rows are processed bottom-up, so each source row is already fully
// reduced when it is used to clear its pivot column above — the same
// deferred schedule the rlnc decode engine runs when a generation closes
// rank.
func (m *Matrix) BackSub(pivots []int) {
	for r := len(pivots) - 1; r > 0; r-- {
		c := pivots[r]
		for i := 0; i < r; i++ {
			if v := m.At(i, c); v != 0 {
				m.addMulRowFrom(i, r, c, v)
			}
		}
	}
}

// RREF reduces the matrix in place to reduced row-echelon form and returns
// the rank and the pivot column of each of the first rank rows.
func (m *Matrix) RREF() (rank int, pivots []int) {
	rank, pivots = m.REF()
	m.BackSub(pivots)
	return rank, pivots
}

// Rank returns the rank of the matrix without modifying it.
func (m *Matrix) Rank() int {
	c := m.Clone()
	rank, _ := c.RREF()
	return rank
}

// Inverse returns the inverse of a square matrix, or ErrSingular.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: inverse of non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	// Augment [m | I] and reduce.
	aug := New(m.f, n, 2*n)
	for i := 0; i < n; i++ {
		copy(aug.Row(i)[:n], m.Row(i))
		aug.Set(i, n+i, 1)
	}
	_, pivots := aug.RREF()
	// The augmented matrix always has rank n; m is invertible only when
	// all n pivots land in the left block, i.e. pivot i is column i.
	if len(pivots) < n || pivots[n-1] != n-1 {
		return nil, ErrSingular
	}
	inv := New(m.f, n, n)
	for i := 0; i < n; i++ {
		copy(inv.Row(i), aug.Row(i)[n:])
	}
	return inv, nil
}

// Solve returns one solution x of m·x = b, or ErrNoSolution when the
// system is inconsistent. Free variables are set to zero.
func (m *Matrix) Solve(b []uint16) ([]uint16, error) {
	if len(b) != m.rows {
		return nil, fmt.Errorf("matrix: rhs length %d, want %d", len(b), m.rows)
	}
	aug := New(m.f, m.rows, m.cols+1)
	for i := 0; i < m.rows; i++ {
		copy(aug.Row(i)[:m.cols], m.Row(i))
		aug.Set(i, m.cols, b[i])
	}
	rank, pivots := aug.RREF()
	// Inconsistent if any pivot landed in the augmented column.
	for _, p := range pivots {
		if p == m.cols {
			return nil, ErrNoSolution
		}
	}
	x := make([]uint16, m.cols)
	for r := 0; r < rank; r++ {
		x[pivots[r]] = aug.At(r, m.cols)
	}
	return x, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
