package lp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Sense is a constraint direction.
type Sense int

// Constraint directions.
const (
	LE Sense = iota // a·x ≤ b
	EQ              // a·x = b
	GE              // a·x ≥ b
)

// Constraint is a single linear constraint a·x ⋈ b.
type Constraint struct {
	A     []float64
	Sense Sense
	B     float64
}

// Problem is min C·x subject to Cons and x ≥ 0.
type Problem struct {
	C    []float64
	Cons []Constraint
}

// Status reports the outcome of Solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is an optimal primal-dual pair. Dual[i] is the multiplier of
// Cons[i] with the standard sign convention for a minimization problem:
// y_i ≥ 0 for GE rows, y_i ≤ 0 for LE rows, free for EQ rows, and
// Σ_i Dual[i]·B[i] = Value at optimality (strong duality).
type Solution struct {
	Status Status
	X      []float64
	Value  float64
	Dual   []float64
	// Phase1Pivots counts the pivots that reached a feasible basis,
	// including those that drive zero-valued artificials out of it;
	// Phase2Pivots counts the pivots that then optimized the costs.
	Phase1Pivots, Phase2Pivots int
}

// Errors returned by Solve.
var (
	ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")
	ErrBadShape       = errors.New("lp: constraint length mismatch")
)

const (
	pivotEps = 1e-9
	costEps  = 1e-9
	feasEps  = 1e-7
)

// Solve runs two-phase primal simplex on p. It uses Dantzig pricing and
// switches to Bland's rule (which cannot cycle) once the iteration count
// passes a threshold.
func (p *Problem) Solve() (*Solution, error) {
	return p.solve(func(tb *tableau) phaseRunner { return tb })
}

// phaseRunner pivots a tableau: iterate runs one simplex phase to
// optimality for a cost vector and returns its pivot count; pivot makes one
// column basic in one row. Solve runs the tableau's own sparse pivots; the
// tests run a dense reference through the same two-phase driver.
type phaseRunner interface {
	iterate(cost []float64, banArtificial bool) (Status, int, error)
	pivot(leave, enter int)
}

// tableau is the dense simplex state: T = B⁻¹[A | slack | artificial],
// rhs = B⁻¹b, and the basic column of each row.
type tableau struct {
	t     [][]float64
	rhs   []float64
	basis []int
	isArt []bool

	// nz is the nonzero pattern of t by column: bit i of column(j) is set
	// exactly when t[i][j] != 0. Pivots keep it exact, so a column scan
	// visits only the rows that hold a nonzero, in ascending row order.
	nz    []uint64
	words int // words per column of nz

	// cb[i] is the current phase's cost of row i's basic variable, and
	// cbRows marks the rows where it is nonzero.
	cb     []float64
	cbRows []uint64

	cols []int // scratch: the nonzero columns of the last pivot row
}

// newTableau wraps a freshly built tableau and records its nonzero pattern.
func newTableau(t [][]float64, rhs []float64, basis []int, isArt []bool) *tableau {
	m, n := len(t), len(isArt)
	words := (m + 63) / 64
	tb := &tableau{
		t: t, rhs: rhs, basis: basis, isArt: isArt,
		nz: make([]uint64, n*words), words: words,
		cb: make([]float64, m), cbRows: make([]uint64, words),
	}
	for i, row := range t {
		for j, v := range row {
			if v != 0 {
				tb.nz[j*words+i>>6] |= 1 << (i & 63)
			}
		}
	}
	return tb
}

// column returns column j's words of the nonzero bitmap.
func (tb *tableau) column(j int) []uint64 {
	return tb.nz[j*tb.words : (j+1)*tb.words]
}

// setBasicCost records the cost of row i's basic variable.
func (tb *tableau) setBasicCost(i int, c float64) {
	tb.cb[i] = c
	if c != 0 {
		tb.cbRows[i>>6] |= 1 << (i & 63)
	} else {
		tb.cbRows[i>>6] &^= 1 << (i & 63)
	}
}

// solve is Solve with the pivoting of the built tableau supplied by runner.
func (p *Problem) solve(runner func(*tableau) phaseRunner) (*Solution, error) {
	n0 := len(p.C)
	m := len(p.Cons)
	for _, c := range p.Cons {
		if len(c.A) != n0 {
			return nil, ErrBadShape
		}
	}
	if m == 0 {
		// Minimize over x ≥ 0 only: optimum is 0 with x = 0 unless some
		// cost is negative (then unbounded).
		for _, cj := range p.C {
			if cj < -costEps {
				return &Solution{Status: Unbounded}, nil
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, n0)}, nil
	}

	// Normalize to b ≥ 0, flipping senses.
	rows := make([]Constraint, m)
	for i, c := range p.Cons {
		a := append([]float64(nil), c.A...)
		b := c.B
		s := c.Sense
		if b < 0 {
			for k := range a {
				a[k] = -a[k]
			}
			b = -b
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		rows[i] = Constraint{A: a, Sense: s, B: b}
	}

	// Column layout: [original n0 | slack/surplus per row (if any) | artificial per row (if any)].
	slackCol := make([]int, m)    // -1 if none
	artCol := make([]int, m)      // -1 if none
	rowIdentity := make([]int, m) // the +e_i column used for dual extraction
	n := n0
	for i, r := range rows {
		slackCol[i], artCol[i] = -1, -1
		switch r.Sense {
		case LE:
			slackCol[i] = n
			n++
		case GE:
			slackCol[i] = n // surplus, coefficient -1
			n++
		}
	}
	for i, r := range rows {
		if r.Sense == GE || r.Sense == EQ {
			artCol[i] = n
			n++
		}
	}
	for i := range rows {
		if artCol[i] >= 0 {
			rowIdentity[i] = artCol[i]
		} else {
			rowIdentity[i] = slackCol[i]
		}
	}

	// Dense tableau T = B⁻¹[A | I-ish], rhs = B⁻¹ b.
	t := make([][]float64, m)
	rhs := make([]float64, m)
	basis := make([]int, m)
	for i, r := range rows {
		t[i] = make([]float64, n)
		copy(t[i], r.A)
		rhs[i] = r.B
		switch r.Sense {
		case LE:
			t[i][slackCol[i]] = 1
			basis[i] = slackCol[i]
		case GE:
			t[i][slackCol[i]] = -1
			t[i][artCol[i]] = 1
			basis[i] = artCol[i]
		case EQ:
			t[i][artCol[i]] = 1
			basis[i] = artCol[i]
		}
	}
	isArt := make([]bool, n)
	for i := range rows {
		if artCol[i] >= 0 {
			isArt[artCol[i]] = true
		}
	}
	run := runner(newTableau(t, rhs, basis, isArt))

	// Phase 1: minimize sum of artificials.
	phase1Cost := make([]float64, n)
	for j := range phase1Cost {
		if isArt[j] {
			phase1Cost[j] = 1
		}
	}
	st, p1, err := run.iterate(phase1Cost, false)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		// Phase-1 objective is bounded below by 0; this cannot happen.
		return nil, errors.New("lp: internal: phase-1 unbounded")
	}
	p1val := objectiveValue(rhs, basis, phase1Cost)
	if p1val > feasEps {
		return &Solution{Status: Infeasible, Phase1Pivots: p1}, nil
	}
	// Drive artificials out of the basis where possible; redundant rows keep
	// a zero-valued artificial basic (banned from re-entering in phase 2).
	for i := 0; i < m; i++ {
		if !isArt[basis[i]] {
			continue
		}
		for j := 0; j < n; j++ {
			if !isArt[j] && math.Abs(t[i][j]) > pivotEps {
				run.pivot(i, j)
				p1++
				break
			}
		}
	}

	// Phase 2: original costs (zero on slacks; artificials banned).
	cost := make([]float64, n)
	copy(cost, p.C)
	st, p2, err := run.iterate(cost, true)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded, Phase1Pivots: p1, Phase2Pivots: p2}, nil
	}

	x := make([]float64, n0)
	for i, bj := range basis {
		if bj < n0 {
			x[bj] = rhs[i]
		}
	}
	// Duals via the identity columns: each row i has a column that began as
	// +e_i (its slack or artificial), so B⁻¹ e_i is that column of the final
	// tableau and y_i = c_B·B⁻¹e_i = z_col = c_col − r_col = −r_col.
	reduced := reducedCosts(t, basis, cost)
	dual := make([]float64, m)
	for i := range rows {
		y := -reduced[rowIdentity[i]]
		// Undo the b<0 row flip: flipping a row negates its multiplier.
		if p.Cons[i].B < 0 {
			y = -y
		}
		dual[i] = y
	}
	return &Solution{
		Status:       Optimal,
		X:            x,
		Value:        objectiveValue(rhs, basis, cost),
		Dual:         dual,
		Phase1Pivots: p1,
		Phase2Pivots: p2,
	}, nil
}

// iterate pivots the tableau to optimality for the given cost vector and
// returns the number of pivots. banArtificial excludes artificial columns
// from entering (phase 2).
//
// The reduced-cost row is priced once and then kept. A pivot changes
// column j of the tableau only where the pivot row is nonzero: elsewhere
// every update subtracts a multiple of zero, and the one basic cost that
// changes multiplies that zero. So only the pivot row's nonzero columns are
// repriced, each summed over the nonzero basic-cost rows in the order
// reducedCosts uses (zero terms leave the sum unchanged): every entry of
// the kept row is bitwise the full recomputation, and the pivot sequence is
// the one the dense method takes.
func (tb *tableau) iterate(cost []float64, banArtificial bool) (Status, int, error) {
	maxIter, blandAfter := iterLimits(len(tb.t), len(tb.isArt))
	for i, bj := range tb.basis {
		tb.setBasicCost(i, cost[bj])
	}
	r := reducedCosts(tb.t, tb.basis, cost)
	for iter := 0; iter < maxIter; iter++ {
		enter := entering(r, tb.isArt, banArtificial, iter >= blandAfter)
		if enter < 0 {
			return Optimal, iter, nil
		}
		leave := tb.ratioTest(enter)
		if leave < 0 {
			return Unbounded, iter, nil
		}
		tb.pivot(leave, enter)
		tb.setBasicCost(leave, cost[enter])
		tb.reprice(r, cost)
	}
	return Optimal, maxIter, ErrIterationLimit
}

// iterLimits returns the iteration cap of one phase on an m×n tableau (m ≥ 1)
// and the iteration after which pricing switches from Dantzig to Bland.
func iterLimits(m, n int) (maxIter, blandAfter int) {
	maxIter = 200*(m+n) + 5000
	return maxIter, maxIter / 2
}

// entering picks the entering column from the reduced costs r: the most
// negative one below −costEps (Dantzig, first on ties), or under Bland's
// rule the first one below −costEps. It returns −1 at optimality.
func entering(r []float64, isArt []bool, banArtificial, bland bool) int {
	enter := -1
	best := -costEps
	for j, rj := range r {
		if banArtificial && isArt[j] {
			continue
		}
		if bland {
			if rj < -costEps {
				return j
			}
		} else if rj < best {
			best = rj
			enter = j
		}
	}
	return enter
}

// ratioTest returns the leaving row for column enter, breaking ties toward
// the smaller basic variable index (Bland), or −1 when the column is
// unbounded. Rows where the column is zero cannot pass the pivot threshold,
// so it scans the column's nonzero rows only, in ascending order.
func (tb *tableau) ratioTest(enter int) int {
	leave := -1
	bestRatio := math.Inf(1)
	for w, word := range tb.column(enter) {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if v := tb.t[i][enter]; v > pivotEps {
				ratio := tb.rhs[i] / v
				if ratio < bestRatio-pivotEps ||
					(ratio < bestRatio+pivotEps && (leave < 0 || tb.basis[i] < tb.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
	}
	return leave
}

// reducedCosts returns r_j = c_j − c_B·T_j for all columns. Products are
// rounded before they are subtracted (here and in every tableau update), so
// no platform fuses them into a multiply-add and the pivot path is the same
// on every architecture.
func reducedCosts(t [][]float64, basis []int, cost []float64) []float64 {
	r := append([]float64(nil), cost...)
	for i, row := range t {
		cb := cost[basis[i]]
		if cb == 0 {
			continue
		}
		for j, v := range row {
			r[j] -= float64(cb * v)
		}
	}
	return r
}

// reprice recomputes r_j = c_j − c_B·T_j for the nonzero columns of the
// last pivot row, over the rows where both T_ij and the basic cost are
// nonzero, in ascending row order.
func (tb *tableau) reprice(r, cost []float64) {
	for _, j := range tb.cols {
		v := cost[j]
		for w, word := range tb.column(j) {
			for word &= tb.cbRows[w]; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				v -= float64(tb.cb[i] * tb.t[i][j])
			}
		}
		r[j] = v
	}
}

func objectiveValue(rhs []float64, basis []int, cost []float64) float64 {
	v := 0.0
	for i, bj := range basis {
		v += float64(cost[bj] * rhs[i])
	}
	return v
}

// pivot makes column enter basic in row leave. It collects the nonzero
// columns of the pivot row once, into reused scratch, and updates only
// those columns of the rows where column enter is nonzero: every skipped
// term is a multiple of zero, so the nonzero entries come out bitwise as a
// full-row update would leave them.
func (tb *tableau) pivot(leave, enter int) {
	prow := tb.t[leave]
	cols := tb.cols[:0]
	for j, v := range prow {
		if v != 0 {
			cols = append(cols, j)
		}
	}
	tb.cols = cols
	nz, words := tb.nz, tb.words
	inv := 1 / prow[enter]
	for _, j := range cols {
		if prow[j] *= inv; prow[j] == 0 { // underflow
			nz[j*words+leave>>6] &^= 1 << (leave & 63)
		}
	}
	tb.rhs[leave] *= inv
	prow[enter] = 1 // exactness
	ecol := tb.column(enter)
	for w, word := range ecol {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			i := w<<6 | b
			if i == leave {
				continue
			}
			row := tb.t[i]
			f := row[enter]
			for _, j := range cols {
				old := row[j]
				row[j] -= float64(f * prow[j])
				if (old == 0) != (row[j] == 0) {
					nz[j*words+w] ^= 1 << b
				}
			}
			row[enter] = 0 // exactness
			ecol[w] &^= 1 << b
			tb.rhs[i] -= float64(f * tb.rhs[leave])
		}
	}
	tb.basis[leave] = enter
}

// CheckPrimalFeasible verifies x against the constraints within tol.
func (p *Problem) CheckPrimalFeasible(x []float64, tol float64) error {
	if len(x) != len(p.C) {
		return ErrBadShape
	}
	for j, v := range x {
		if v < -tol {
			return fmt.Errorf("lp: x[%d]=%v negative", j, v)
		}
	}
	for i, c := range p.Cons {
		ax := dot(c.A, x)
		switch c.Sense {
		case LE:
			if ax > c.B+tol {
				return fmt.Errorf("lp: row %d: %v > %v", i, ax, c.B)
			}
		case GE:
			if ax < c.B-tol {
				return fmt.Errorf("lp: row %d: %v < %v", i, ax, c.B)
			}
		case EQ:
			if math.Abs(ax-c.B) > tol {
				return fmt.Errorf("lp: row %d: %v != %v", i, ax, c.B)
			}
		}
	}
	return nil
}

// CheckDualFeasible verifies y against the dual of p within tol:
// sign constraints per row sense and Aᵀy ≤ c.
func (p *Problem) CheckDualFeasible(y []float64, tol float64) error {
	if len(y) != len(p.Cons) {
		return ErrBadShape
	}
	for i, c := range p.Cons {
		if c.Sense == GE && y[i] < -tol {
			return fmt.Errorf("lp: dual %d=%v negative on GE row", i, y[i])
		}
		if c.Sense == LE && y[i] > tol {
			return fmt.Errorf("lp: dual %d=%v positive on LE row", i, y[i])
		}
	}
	for j := range p.C {
		s := 0.0
		for i, c := range p.Cons {
			s += c.A[j] * y[i]
		}
		if s > p.C[j]+tol {
			return fmt.Errorf("lp: dual constraint %d: %v > %v", j, s, p.C[j])
		}
	}
	return nil
}

// DualValue returns b·y.
func (p *Problem) DualValue(y []float64) float64 {
	v := 0.0
	for i, c := range p.Cons {
		v += c.B * y[i]
	}
	return v
}

func dot(a, b []float64) float64 {
	s := 0.0
	for k := range a {
		s += a[k] * b[k]
	}
	return s
}
