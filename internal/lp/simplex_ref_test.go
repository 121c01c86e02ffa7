package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refTableau is the dense reference simplex: every iteration reprices all
// columns with reducedCosts, the ratio test scans every row, and every
// pivot updates every column of every row it touches. It shares the
// two-phase driver and the pricing rule with Solve, so any difference in
// results comes from the sparse pivot, the nonzero bitmap, or the kept
// reduced-cost row.
type refTableau struct{ *tableau }

func (rt refTableau) iterate(cost []float64, banArtificial bool) (Status, int, error) {
	maxIter, blandAfter := iterLimits(len(rt.t), len(rt.isArt))
	for iter := 0; iter < maxIter; iter++ {
		r := reducedCosts(rt.t, rt.basis, cost)
		enter := entering(r, rt.isArt, banArtificial, iter >= blandAfter)
		if enter < 0 {
			return Optimal, iter, nil
		}
		leave := -1
		bestRatio := math.Inf(1)
		for i, row := range rt.t {
			if row[enter] > pivotEps {
				ratio := rt.rhs[i] / row[enter]
				if ratio < bestRatio-pivotEps ||
					(ratio < bestRatio+pivotEps && (leave < 0 || rt.basis[i] < rt.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded, iter, nil
		}
		rt.pivot(leave, enter)
	}
	return Optimal, maxIter, ErrIterationLimit
}

func (rt refTableau) pivot(leave, enter int) {
	t, rhs := rt.t, rt.rhs
	prow := t[leave]
	inv := 1 / prow[enter]
	for j := range prow {
		prow[j] *= inv
	}
	rhs[leave] *= inv
	prow[enter] = 1
	for i, row := range t {
		if i == leave {
			continue
		}
		f := row[enter]
		if f == 0 {
			continue
		}
		for j := range row {
			row[j] -= float64(f * prow[j])
		}
		row[enter] = 0
		rhs[i] -= float64(f * rhs[leave])
	}
	rt.basis[leave] = enter
}

func refSolve(p *Problem) (*Solution, error) {
	return p.solve(func(tb *tableau) phaseRunner { return refTableau{tb} })
}

// sameBits reports whether a and b hold bitwise-identical floats.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkMatchesReference solves p with Solve and with the dense reference
// and fails unless status, pivot counts, X, Dual and Value are identical.
func checkMatchesReference(t *testing.T, name string, p *Problem) *Solution {
	t.Helper()
	got, err := p.Solve()
	want, rerr := refSolve(p)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("%s: error %v, reference error %v", name, err, rerr)
	}
	if err != nil {
		return nil
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, reference %v", name, got.Status, want.Status)
	}
	if got.Phase1Pivots != want.Phase1Pivots || got.Phase2Pivots != want.Phase2Pivots {
		t.Fatalf("%s: pivots %d+%d, reference %d+%d", name,
			got.Phase1Pivots, got.Phase2Pivots, want.Phase1Pivots, want.Phase2Pivots)
	}
	if !sameBits(got.X, want.X) {
		t.Fatalf("%s: X differs from the reference", name)
	}
	if !sameBits(got.Dual, want.Dual) {
		t.Fatalf("%s: Dual differs from the reference", name)
	}
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
		t.Fatalf("%s: value %v, reference %v", name, got.Value, want.Value)
	}
	return got
}

func TestSimplexMatchesReferenceOnRandomLPs(t *testing.T) {
	// The LP generators of TestStrongDualityOnRandomLPs and
	// TestMixedSenseDuality, with their seeds.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		nv := 2 + rng.Intn(5)
		mc := 1 + rng.Intn(6)
		p := &Problem{C: make([]float64, nv)}
		for j := range p.C {
			p.C[j] = rng.Float64() * 5
		}
		for i := 0; i < mc; i++ {
			a := make([]float64, nv)
			for j := range a {
				a[j] = rng.Float64()
			}
			p.Cons = append(p.Cons, Constraint{A: a, Sense: GE, B: 1 + rng.Float64()})
		}
		checkMatchesReference(t, fmt.Sprintf("GE trial %d", trial), p)
	}
	rng = rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		p := &Problem{C: []float64{1 + rng.Float64(), 1 + rng.Float64(), 1 + rng.Float64()}}
		p.Cons = append(p.Cons,
			Constraint{A: []float64{1, 1, 0}, Sense: GE, B: 2},
			Constraint{A: []float64{0, 1, 1}, Sense: GE, B: 1 + rng.Float64()},
			Constraint{A: []float64{1, 0, 1}, Sense: LE, B: 10},
			Constraint{A: []float64{1, -1, 0}, Sense: EQ, B: 0.5},
		)
		checkMatchesReference(t, fmt.Sprintf("mixed trial %d", trial), p)
	}
}

func TestSimplexMatchesReferenceOnEdgeCases(t *testing.T) {
	for name, p := range map[string]*Problem{
		"degenerate": {C: []float64{-1, -1}, Cons: []Constraint{
			{A: []float64{1, 0}, Sense: LE, B: 1},
			{A: []float64{0, 1}, Sense: LE, B: 1},
			{A: []float64{1, 1}, Sense: LE, B: 2},
		}},
		"redundant equality": {C: []float64{1, 1}, Cons: []Constraint{
			{A: []float64{1, 1}, Sense: EQ, B: 2},
			{A: []float64{1, 1}, Sense: EQ, B: 2},
		}},
		"infeasible": {C: []float64{1}, Cons: []Constraint{
			{A: []float64{1}, Sense: LE, B: 1},
			{A: []float64{1}, Sense: GE, B: 2},
		}},
		"unbounded": {C: []float64{-1, 0}, Cons: []Constraint{
			{A: []float64{0, 1}, Sense: LE, B: 1},
		}},
		"negative rhs": {C: []float64{1}, Cons: []Constraint{
			{A: []float64{-1}, Sense: LE, B: -2},
		}},
		"equality": {C: []float64{1, 1}, Cons: []Constraint{
			{A: []float64{1, 2}, Sense: EQ, B: 4},
			{A: []float64{1, -1}, Sense: EQ, B: 1},
		}},
	} {
		checkMatchesReference(t, name, p)
	}
}

func TestSimplexMatchesReferenceOnFacilityLPs(t *testing.T) {
	sizes := [][2]int{{8, 32}, {12, 48}, {16, 64}}
	if testing.Short() || raceEnabled {
		sizes = sizes[:2]
	}
	for _, sz := range sizes {
		for seed := int64(1); seed <= 8; seed++ {
			nf, nc := sz[0], sz[1]
			t.Run(fmt.Sprintf("%dx%d/seed%d", nf, nc, seed), func(t *testing.T) {
				t.Parallel()
				in := facInstance(100+seed, nf, nc)
				checkMatchesReference(t, "facility LP", FacilityLP(in))
			})
		}
	}
}

// TestFacilityLPPivotCount pins the pivot path of one 12×48 Figure-1 LP: the
// counts are a pure function of the instance and the pivot rules, so a
// change to either shows here on any machine.
func TestFacilityLPPivotCount(t *testing.T) {
	ff, err := SolveFacility(facInstance(101, 12, 48))
	if err != nil {
		t.Fatal(err)
	}
	if ff.Phase1Pivots != 624 || ff.Phase2Pivots != 601 {
		t.Fatalf("pivots %d+%d, want 624+601", ff.Phase1Pivots, ff.Phase2Pivots)
	}
}

func BenchmarkSimplexFacility(b *testing.B) {
	prob := FacilityLP(facInstance(101, 12, 48))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := prob.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
