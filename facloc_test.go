package facloc

import (
	"context"
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/obs"
)

func TestPublicAPIFacilityLocationEndToEnd(t *testing.T) {
	in := GenerateUniform(1, 6, 16, 1, 6)
	opt := OptimalFacility(in, Options{})

	algos := map[string]func() *Result{
		"greedy-parallel": func() *Result { return GreedyParallel(in, Options{Epsilon: 0.3, Seed: 1}) },
		"greedy-seq":      func() *Result { return GreedySequential(in, Options{}) },
		"primal-dual-par": func() *Result { return PrimalDualParallel(in, Options{Epsilon: 0.3, Seed: 1}) },
		"primal-dual-seq": func() *Result { return PrimalDualSequential(in, Options{}) },
	}
	bounds := map[string]float64{
		"greedy-parallel": 3.722 + 0.3,
		"greedy-seq":      1.861,
		"primal-dual-par": 3 + 3*0.3,
		"primal-dual-seq": 3,
	}
	for name, run := range algos {
		r := run()
		if err := r.Solution.CheckFeasible(in, 1e-9); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ratio := r.Solution.Cost() / opt.Solution.Cost()
		if ratio > bounds[name]+1e-9 {
			t.Fatalf("%s: ratio %v > %v", name, ratio, bounds[name])
		}
	}
}

func TestPublicAPILPRound(t *testing.T) {
	in := GenerateUniform(2, 5, 12, 1, 6)
	r, lpVal, err := LPRound(in, Options{Epsilon: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Solution.CheckFeasible(in, 1e-9); err != nil {
		t.Fatal(err)
	}
	if lpVal <= 0 {
		t.Fatalf("LP value %v", lpVal)
	}
	if r.Solution.Cost() > (4+4*0.3)*lpVal+lpVal {
		t.Fatalf("rounded cost %v vs LP %v", r.Solution.Cost(), lpVal)
	}
}

func TestLPRoundTracesPivotCounts(t *testing.T) {
	in := GenerateUniform(3, 6, 20, 1, 6)
	rec := &obs.Recorder{}
	if _, err := Solve(context.Background(), "lp-round", in, Options{Seed: 1, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	frac, err := lp.SolveFacility(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []obs.SpanEvent{
		{Solver: "lp", Phase: "phase1", Round: 0, Work: int64(frac.Phase1Pivots)},
		{Solver: "lp", Phase: "phase2", Round: 1, Work: int64(frac.Phase2Pivots)},
	}
	var got []obs.SpanEvent
	for _, ev := range rec.Events() {
		if ev.Solver == "lp" {
			got = append(got, ev)
		}
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("lp events %+v, want %+v", got, want)
	}
	if frac.Phase1Pivots == 0 || frac.Phase2Pivots == 0 {
		t.Fatalf("pivot counts %d+%d, want both positive", frac.Phase1Pivots, frac.Phase2Pivots)
	}
}

func TestPublicAPIKClustering(t *testing.T) {
	ki := GenerateKUniform(3, 12, 3)
	optCenter := OptimalKCluster(ki, KCenter, Options{})
	optMedian := OptimalKCluster(ki, KMedian, Options{})
	optMeans := OptimalKCluster(ki, KMeans, Options{})

	hs := KCenterParallel(ki, Options{Seed: 3})
	if hs.Solution.Value > 2*optCenter.Solution.Value+1e-9 {
		t.Fatalf("k-center ratio %v", hs.Solution.Value/optCenter.Solution.Value)
	}
	gz := KCenterGreedy(ki, Options{})
	if gz.Solution.Value > 2*optCenter.Solution.Value+1e-9 {
		t.Fatalf("Gonzalez ratio %v", gz.Solution.Value/optCenter.Solution.Value)
	}
	med := KMedianLocalSearch(ki, Options{Epsilon: 0.3, Seed: 3})
	if med.Solution.Value > (5+0.3)*optMedian.Solution.Value+1e-9 {
		t.Fatalf("k-median ratio %v", med.Solution.Value/optMedian.Solution.Value)
	}
	means := KMeansLocalSearch(ki, Options{Epsilon: 0.3, Seed: 3})
	if means.Solution.Value > (81+0.3)*optMeans.Solution.Value+1e-9 {
		t.Fatalf("k-means ratio %v", means.Solution.Value/optMeans.Solution.Value)
	}
}

func TestPublicAPI2Swap(t *testing.T) {
	ki := GenerateKClustered(4, 20, 3)
	r := KMedianLocalSearch2Swap(ki, Options{Epsilon: 0.3, Seed: 4})
	if err := r.Solution.CheckFeasible(ki, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestDualReporting(t *testing.T) {
	in := GenerateUniform(5, 5, 12, 1, 6)
	r := PrimalDualParallel(in, Options{Epsilon: 0.3, Seed: 5})
	if r.Dual == nil {
		t.Fatal("no dual recorded")
	}
	if v := r.DualFeasibility(in, 1); v > 1e-6 {
		t.Fatalf("dual infeasible: %v", v)
	}
	lpVal, err := LPLowerBound(in)
	if err != nil {
		t.Fatal(err)
	}
	dv := r.DualValue()
	if dv > lpVal+1e-6 {
		t.Fatalf("dual value %v above LP %v", dv, lpVal)
	}
	// The dual value is a certified lower bound: cost / dual ≤ 3(1+ε) also
	// certifies the ratio without knowing OPT.
	if r.Solution.Cost() < dv-1e-9 {
		t.Fatalf("cost %v below its own lower bound %v", r.Solution.Cost(), dv)
	}
}

func TestStatsPopulated(t *testing.T) {
	in := GenerateUniform(6, 6, 20, 1, 6)
	r := GreedyParallel(in, Options{Epsilon: 0.3, Seed: 6, TrackCost: true})
	if r.Stats.Work == 0 || r.Stats.Span == 0 {
		t.Fatalf("tracked stats empty: %+v", r.Stats)
	}
	if r.Stats.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	if r.Stats.WallTime <= 0 {
		t.Fatal("no wall time")
	}
	r2 := GreedyParallel(in, Options{Epsilon: 0.3, Seed: 6})
	if r2.Stats.Work != 0 {
		t.Fatal("work tracked without TrackCost")
	}
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(nil, nil); err == nil {
		t.Fatal("empty instance accepted")
	}
	if _, err := NewInstance([]float64{1}, [][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Fatal("row count mismatch accepted")
	}
	if _, err := NewInstance([]float64{1, 2}, [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	in, err := NewInstance([]float64{1, 2}, [][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if in.NF != 2 || in.NC != 2 || in.Dist(1, 0) != 3 {
		t.Fatalf("instance mangled: %+v", in)
	}
}

func TestFromPointsRoundTrip(t *testing.T) {
	pts := [][]float64{{0, 0}, {3, 4}, {6, 8}}
	in, err := FromPoints(pts, []int{0}, []int{1, 2}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(in.Dist(0, 0)-5) > 1e-12 || math.Abs(in.Dist(0, 1)-10) > 1e-12 {
		t.Fatalf("distances wrong: %v %v", in.Dist(0, 0), in.Dist(0, 1))
	}
	if _, err := FromPoints(pts, []int{0, 9}, []int{1}, []float64{1, 1}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := FromPoints([][]float64{{0, 0}, {1}}, []int{0}, []int{1}, []float64{1}); err == nil {
		t.Fatal("ragged points accepted")
	}
}

func TestNewKInstanceValidation(t *testing.T) {
	if _, err := NewKInstance(nil, 1); err == nil {
		t.Fatal("empty accepted")
	}
	d := [][]float64{{0, 1}, {1, 0}}
	ki, err := NewKInstance(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ki.N != 2 || ki.K != 1 {
		t.Fatalf("%+v", ki)
	}
	if _, err := NewKInstance([][]float64{{0, 1}, {2, 0}}, 1); err == nil {
		t.Fatal("asymmetric accepted")
	}
}

func TestGammaBoundsBracketOPT(t *testing.T) {
	in := GenerateUniform(7, 6, 14, 1, 6)
	lo, hi := GammaBounds(in)
	opt := OptimalFacility(in, Options{})
	if opt.Solution.Cost() < lo-1e-9 || opt.Solution.Cost() > hi+1e-9 {
		t.Fatalf("OPT %v outside [γ=%v, Σγ=%v]", opt.Solution.Cost(), lo, hi)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenerateUniform(9, 5, 10, 1, 5)
	b := GenerateUniform(9, 5, 10, 1, 5)
	for k := range a.D.A {
		if a.D.A[k] != b.D.A[k] {
			t.Fatal("GenerateUniform not deterministic")
		}
	}
	ka := GenerateKClustered(9, 15, 3)
	kb := GenerateKClustered(9, 15, 3)
	for k := range ka.Dist.A {
		if ka.Dist.A[k] != kb.Dist.A[k] {
			t.Fatal("GenerateKClustered not deterministic")
		}
	}
}

func TestEpsilonDefaulting(t *testing.T) {
	in := GenerateUniform(10, 4, 8, 1, 4)
	r := GreedyParallel(in, Options{}) // zero options: ε defaults to 0.3
	if err := r.Solution.CheckFeasible(in, 1e-9); err != nil {
		t.Fatal(err)
	}
}
