package metric

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// DistMatrix is the flat distance substrate every solver in this repository
// runs on: a rows×cols block of distances backed by a single contiguous
// []float64 (par.Dense), so row access is one slice header and the whole
// matrix is one allocation. Square matrices double as a metric Space
// (N() = Rows, Dist = At), which is how the explicit-matrix generators and
// the k-clustering instances use it; rectangular ones hold facility×client
// blocks for UFL instances.
type DistMatrix struct {
	*par.Dense[float64]
}

// NewDistMatrix allocates a zeroed rows×cols distance matrix.
func NewDistMatrix(rows, cols int) *DistMatrix {
	return &DistMatrix{Dense: par.NewDense[float64](rows, cols)}
}

// N returns the number of points when the matrix is square, making a
// square DistMatrix a metric Space.
func (m *DistMatrix) N() int { return m.R }

// Dist returns the stored distance between points i and j.
func (m *DistMatrix) Dist(i, j int) float64 { return m.At(i, j) }

// Clone returns a deep copy.
func (m *DistMatrix) Clone() *DistMatrix {
	return &DistMatrix{Dense: m.Dense.Clone()}
}

// SortedOrders returns, for every row of m, the column indices sorted by
// ascending distance (ties broken toward the smaller index) — the presorted
// scan orders the §4 greedy and §5 primal-dual engines run their
// live-prefix sweeps over. One Θ(RC log C)-work presort up front is what
// lets every later round touch only the edges still alive instead of the
// full R×C matrix.
//
// The per-row sort is an LSD radix sort on the IEEE-754 bit patterns:
// non-negative float64s order identically to their bit representations, and
// radix passes are stable, so seeding the payload with ascending column
// indices yields exactly the (distance, index) lexicographic order — at
// several times the throughput of a comparison sort on these row lengths.
// Distances must be non-negative and NaN-free, which Instance/Space
// validation guarantees.
func SortedOrders(c *par.Ctx, m *DistMatrix) *par.Dense[int32] {
	ord := par.NewDense[int32](m.R, m.C)
	c.Charge(int64(m.R)*int64(m.C)*int64(math.Ilogb(float64(m.C)+2)+1), int64(math.Ilogb(float64(m.C)+2)+1))
	rows := c.PerRow(m.C)
	rows.ForBlock(m.R, func(lo, hi int) {
		n := m.C
		a := make([]distKey, n)
		b := make([]distKey, n)
		for i := lo; i < hi; i++ {
			drow := m.Row(i)
			for j := 0; j < n; j++ {
				d := drow[j]
				if d == 0 {
					d = 0 // normalize -0.0 so its sign bit cannot misorder it
				}
				a[j] = distKey{k: math.Float64bits(d), idx: int32(j)}
			}
			radixSortDistKeys(a, b)
			row := ord.Row(i)
			for j := 0; j < n; j++ {
				row[j] = a[j].idx
			}
		}
	})
	return ord
}

// distKey pairs a distance's bit pattern with its column index for the
// radix presort.
type distKey struct {
	k   uint64
	idx int32
}

// radixSortDistKeys sorts a ascending by k via byte-wise LSD radix passes,
// using b as the scatter buffer. Passes where every key shares the same
// byte are skipped — distances in one row typically span few exponents, so
// the high-byte passes are usually free. The element count must fit int32
// counters (guaranteed: matrix columns are in-memory slices).
func radixSortDistKeys(a, b []distKey) {
	n := len(a)
	if n == 0 {
		return
	}
	orig := a
	var cnt [256]int32
	for shift := 0; shift < 64; shift += 8 {
		for i := range cnt {
			cnt[i] = 0
		}
		for i := 0; i < n; i++ {
			cnt[(a[i].k>>shift)&0xFF]++
		}
		if int(cnt[(a[0].k>>shift)&0xFF]) == n {
			continue // all keys share this byte: pass is the identity
		}
		pos := int32(0)
		for i := range cnt {
			c := cnt[i]
			cnt[i] = pos
			pos += c
		}
		for i := 0; i < n; i++ {
			d := (a[i].k >> shift) & 0xFF
			b[cnt[d]] = a[i]
			cnt[d]++
		}
		a, b = b, a
	}
	// Skipped passes mean the result may sit in either buffer; copy back so
	// the sorted keys always end up in the caller's a.
	if n > 0 && &a[0] != &orig[0] {
		copy(orig, a)
	}
}

// FromRows converts a row-of-rows matrix (the shape accepted at API
// boundaries and on the JSON wire) into a flat DistMatrix, rejecting ragged
// input. The copy is row-blocked parallel.
func FromRows(c *par.Ctx, rows [][]float64) (*DistMatrix, error) {
	r := len(rows)
	if r == 0 {
		return nil, fmt.Errorf("metric: empty matrix")
	}
	cols := len(rows[0])
	for i, row := range rows {
		if len(row) != cols {
			return nil, fmt.Errorf("metric: ragged row %d: %d cols, want %d", i, len(row), cols)
		}
	}
	m := NewDistMatrix(r, cols)
	c.ForRows(r, cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(m.Row(i), rows[i])
		}
	})
	return m, nil
}

// ToRows converts m back to row-of-rows form (each row freshly allocated),
// the inverse of FromRows for serialization boundaries.
func ToRows(c *par.Ctx, m *DistMatrix) [][]float64 {
	out := make([][]float64, m.R)
	c.ForRows(m.R, m.C, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = append([]float64(nil), m.Row(i)...)
		}
	})
	return out
}

// FullMatrix materializes the full n×n distance matrix of a space, computed
// in parallel over row blocks. Work Θ(n²·D) for point spaces with Dist cost
// D; span Θ(n·D + log n).
func FullMatrix(c *par.Ctx, sp Space) *DistMatrix {
	n := sp.N()
	m := NewDistMatrix(n, n)
	if src, ok := sp.(*DistMatrix); ok && src.C == n {
		c.ForRows(n, n, func(lo, hi int) {
			copy(m.A[lo*n:hi*n], src.A[lo*n:hi*n])
		})
		return m
	}
	c.ForRows(n, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for j := range row {
				row[j] = sp.Dist(i, j)
			}
		}
	})
	return m
}

// SubmatrixRows materializes the |rows|×|cols| distance block between two
// index sets of a space — e.g. facilities×clients for a UFL instance — in
// parallel over row blocks.
func SubmatrixRows(c *par.Ctx, sp Space, rows, cols []int) *DistMatrix {
	m := NewDistMatrix(len(rows), len(cols))
	c.ForRows(len(rows), len(cols), func(lo, hi int) {
		for a := lo; a < hi; a++ {
			i := rows[a]
			row := m.Row(a)
			for b, j := range cols {
				row[b] = sp.Dist(i, j)
			}
		}
	})
	return m
}

// MetricClosure replaces m with its all-pairs-shortest-path closure
// (Floyd–Warshall), turning any non-negative symmetric matrix into a metric.
// Each of the n elimination steps relaxes all rows against the pivot row in
// parallel (row i's update reads only row i and the pivot row k, and the
// pivot row is a fixed point of its own step, so the row blocks are
// independent). Work Θ(n³), span Θ(n²).
func MetricClosure(c *par.Ctx, m *DistMatrix) {
	n := m.R
	for k := 0; k < n; k++ {
		rowK := m.Row(k)
		c.ForRows(n, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := m.Row(i)
				dik := row[k]
				if math.IsInf(dik, 1) {
					continue
				}
				for j, dkj := range rowK {
					if v := dik + dkj; v < row[j] {
						row[j] = v
					}
				}
			}
		})
	}
}

// Validate checks that sp is a metric: symmetric, non-negative, zero
// diagonal, and triangle inequality within tolerance tol. Both passes are
// row-blocked parallel; when several violations exist the one with the
// lexicographically smallest (i, j, k) is reported, so the result is
// deterministic regardless of worker count. Cost is Θ(n³) work, Θ(n²+log n)
// span; intended for tests and moderate inputs.
func Validate(c *par.Ctx, sp Space, tol float64) error {
	n := sp.N()
	pairErr := newErrAt(n)
	c.ForRows(n, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if d := sp.Dist(i, i); d != 0 {
				pairErr.record(i, fmt.Errorf("metric: d(%d,%d)=%v, want 0", i, i, d))
				return
			}
			for j := 0; j < n; j++ {
				dij := sp.Dist(i, j)
				if dij < 0 {
					pairErr.record(i, fmt.Errorf("metric: d(%d,%d)=%v negative", i, j, dij))
					return
				}
				if dji := sp.Dist(j, i); math.Abs(dij-dji) > tol {
					pairErr.record(i, fmt.Errorf("metric: asymmetric d(%d,%d)=%v d(%d,%d)=%v", i, j, dij, j, i, dji))
					return
				}
			}
		}
	})
	if err := pairErr.first(); err != nil {
		return err
	}
	triErr := newErrAt(n)
	c.ForRows(n, n*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				dij := sp.Dist(i, j)
				for k := 0; k < n; k++ {
					if sp.Dist(i, k) > dij+sp.Dist(j, k)+tol {
						triErr.record(i, fmt.Errorf("metric: triangle violated: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
							i, k, sp.Dist(i, k), i, j, j, k, dij+sp.Dist(j, k)))
						return
					}
				}
			}
		}
	})
	return triErr.first()
}
