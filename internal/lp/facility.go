package lp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/par"
)

// The Figure-1 primal program:
//
//	min  Σ_{i,j} d(j,i)·x_ij + Σ_i f_i·y_i
//	s.t. Σ_i x_ij ≥ 1          for every client j
//	     y_i − x_ij ≥ 0        for every facility i, client j
//	     x, y ≥ 0
//
// Variable layout: x_ij at index i·nc + j, y_i at index nf·nc + i.
// Constraint layout: client rows 0..nc-1, then linking rows nc + i·nc + j.

// XIndex returns the LP variable index of x_ij.
func XIndex(in *core.Instance, i, j int) int { return i*in.NC + j }

// YIndex returns the LP variable index of y_i.
func YIndex(in *core.Instance, i int) int { return in.M() + i }

// FacilityLP builds the Figure-1 primal LP for the instance. Client weights
// scale the connection coefficients (w_j·d(j,i)), so the LP optimum lower
// bounds the weighted integral objective.
func FacilityLP(in *core.Instance) *Problem {
	nf, nc := in.NF, in.NC
	nvars := nf*nc + nf
	c := make([]float64, nvars)
	for i := 0; i < nf; i++ {
		// x_ij costs for facility i are contiguous: one row copy.
		copy(c[XIndex(in, i, 0):XIndex(in, i, 0)+nc], in.D.Row(i))
		if in.Weighted() {
			for j := 0; j < nc; j++ {
				c[XIndex(in, i, j)] *= in.W(j)
			}
		}
		c[YIndex(in, i)] = in.FacCost[i]
	}
	cons := make([]Constraint, 0, nc+nf*nc)
	for j := 0; j < nc; j++ {
		a := make([]float64, nvars)
		for i := 0; i < nf; i++ {
			a[XIndex(in, i, j)] = 1
		}
		cons = append(cons, Constraint{A: a, Sense: GE, B: 1})
	}
	for i := 0; i < nf; i++ {
		for j := 0; j < nc; j++ {
			a := make([]float64, nvars)
			a[YIndex(in, i)] = 1
			a[XIndex(in, i, j)] = -1
			cons = append(cons, Constraint{A: a, Sense: GE, B: 0})
		}
	}
	return &Problem{C: c, Cons: cons}
}

// FacilityFrac is a fractional solution to the facility LP in matrix form,
// the input shape the §6.2 rounding algorithm expects.
type FacilityFrac struct {
	X     *par.Dense[float64] // nf×nc assignment fractions
	Y     []float64           // facility opening fractions
	Value float64             // LP objective value — a lower bound on OPT
	Alpha []float64           // duals of the client rows (Figure-1 α_j)
	// Phase1Pivots and Phase2Pivots are the simplex pivot counts of the
	// solve (see Solution).
	Phase1Pivots, Phase2Pivots int
}

// SolveFacility solves the Figure-1 LP for the instance and unpacks the
// solution. The returned Value is the canonical lower bound on integral OPT.
func SolveFacility(in *core.Instance) (*FacilityFrac, error) {
	prob := FacilityLP(in)
	sol, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != Optimal {
		return nil, fmt.Errorf("lp: facility LP status %v", sol.Status)
	}
	x := par.NewDense[float64](in.NF, in.NC)
	for i := 0; i < in.NF; i++ {
		copy(x.Row(i), sol.X[XIndex(in, i, 0):XIndex(in, i, 0)+in.NC])
	}
	y := make([]float64, in.NF)
	for i := range y {
		y[i] = sol.X[YIndex(in, i)]
	}
	alpha := make([]float64, in.NC)
	copy(alpha, sol.Dual[:in.NC])
	return &FacilityFrac{
		X: x, Y: y, Value: sol.Value, Alpha: alpha,
		Phase1Pivots: sol.Phase1Pivots, Phase2Pivots: sol.Phase2Pivots,
	}, nil
}

// CheckFrac verifies the structural properties rounding relies on:
// Σ_i x_ij = 1 (≥ 1 with equality at optimality up to tol), 0 ≤ x_ij ≤ y_i.
func (ff *FacilityFrac) CheckFrac(in *core.Instance, tol float64) error {
	for j := 0; j < in.NC; j++ {
		s := 0.0
		for i := 0; i < in.NF; i++ {
			s += ff.X.At(i, j)
		}
		if s < 1-tol {
			return fmt.Errorf("lp: client %d served %v < 1", j, s)
		}
	}
	for i := 0; i < in.NF; i++ {
		for j := 0; j < in.NC; j++ {
			x := ff.X.At(i, j)
			if x < -tol {
				return fmt.Errorf("lp: x[%d][%d]=%v negative", i, j, x)
			}
			if x > ff.Y[i]+tol {
				return fmt.Errorf("lp: x[%d][%d]=%v exceeds y[%d]=%v", i, j, x, i, ff.Y[i])
			}
		}
	}
	return nil
}
