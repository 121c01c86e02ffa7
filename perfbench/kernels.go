package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	facloc "repro"
	"repro/internal/lp"
	"repro/internal/metric"
	"repro/internal/mpc"
)

// The kernels workload: each iteration solves fresh seeded instances through
// the public registry, one closed-loop caller.
const (
	kernNF, kernNC = 400, 4000 // greedy-par and pd-par
	lpNF, lpNC     = 12, 48    // lp-round
	mpcN, mpcK     = 200_000, 16
	mpcBudget      = 4 << 20
	// Warm-up sizes: big enough to start the worker pool and size its
	// buffers, small enough that set-up stays generation and start-up.
	warmNF, warmNC = 40, 400
	// lpChecks and mpcChecks are how many lp-round and kmedian-mpc answers
	// an untraced run re-checks after its window, against a fresh LP solve
	// and against the cost over the regenerated point set.
	lpChecks, mpcChecks = 2, 2
	// lpSlack is the lp-round guarantee 4(1+ε) at the default ε = 0.3.
	lpSlack = 4 * 1.3
)

type kernelInput struct {
	seed   int64 // instance and solver seed
	big    *facloc.Instance
	small  *facloc.Instance
	stream []byte // kmedian NDJSON stream, 2-D points
}

func kernelInputFor(seed int64, iter int) (*kernelInput, error) {
	s := facloc.DeriveSeed(seed, iter)
	var buf bytes.Buffer
	if err := mpc.EncodeStream(&buf, &mpc.Header{Kind: mpc.KindK, N: mpcN, K: mpcK, Dim: 2}, [][]float64{mpcPoints(s).Coords}); err != nil {
		return nil, fmt.Errorf("kernels: encoding the mpc stream: %w", err)
	}
	return &kernelInput{
		seed:   s,
		big:    facloc.GenerateUniform(s, kernNF, kernNC, 1, 10),
		small:  facloc.GenerateUniform(s+1, lpNF, lpNC, 1, 10),
		stream: buf.Bytes(),
	}, nil
}

// warmInputFor is a throwaway greedy-par and pd-par input of the warm-up
// size.
func warmInputFor(seed int64) *facloc.Instance {
	return facloc.GenerateUniform(facloc.DeriveSeed(seed, -1), warmNF, warmNC, 1, 10)
}

// mpcPoints is the k-median point set behind the stream of seed s.
func mpcPoints(s int64) *metric.Euclidean {
	return metric.GaussianClusters(nil, rand.New(rand.NewSource(s)), mpcN, mpcK, 2, 1000, 5)
}

// kernels runs the kernel calls of one pass and collects what they show.
type kernels struct {
	o                     *outcome
	traced                bool
	greedy, pd, lpr, kmpc *class
	log                   *eventLog
	samples               map[string][]float64 // per-layer samples (traced)
	cpu, wall             time.Duration        // greedy-par and pd-par calls (traced)
	lpChecked             []*kernelInput
	mpcChecked            []mpcAnswer
}

// mpcAnswer is a kmedian-mpc answer kept for the check after the window.
type mpcAnswer struct {
	seed int64
	rep  *facloc.MPCReport
}

func runKernels(p pass) (*outcome, error) {
	k := &kernels{
		o:       &outcome{layers: map[string]float64{}},
		traced:  p.traced,
		greedy:  newClass(named{"greedy_par_ms", 50}),
		pd:      newClass(named{"pd_par_ms", 50}),
		lpr:     newClass(named{"lp_round_ms", 50}),
		kmpc:    newClass(named{"kmedian_mpc_ms", 50}),
		samples: map[string][]float64{},
	}
	k.o.classes = []*class{k.greedy, k.pd, k.lpr, k.kmpc}
	if p.traced {
		k.o.rec = newRecorder()
		k.log = &eventLog{}
	}
	var in *kernelInput
	for r := 0; r < p.reps; r++ {
		start := setupClock()
		var err error
		if in, err = kernelInputFor(p.seed, 0); err != nil {
			return nil, err
		}
		// Warm-up: one untimed greedy-par and pd-par call on a small
		// throwaway input starts the worker pool and sizes the presort
		// buffers. lp-round and kmedian-mpc allocate afresh per call, and a
		// kmedian-mpc call costs about the same at any stream length (its root
		// coreset has a fixed size), so both are left out.
		if err := k.warmUp(warmInputFor(p.seed), in.seed); err != nil {
			return nil, err
		}
		k.o.setupS = append(k.o.setupS, time.Since(start).Seconds())
		k.o.setupRef = append(k.o.setupRef, refLoopMS())
	}
	resetPeakRSS()
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	for iter := 0; time.Now().Before(deadline); iter++ {
		if iter > 0 {
			var err error
			if in, err = kernelInputFor(p.seed, iter); err != nil {
				return nil, err
			}
		}
		k.iteration(in, int64(iter))
		if !p.traced && iter < lpChecks {
			k.lpChecked = append(k.lpChecked, in)
		}
	}
	k.o.rssMB = peakRSSMB()
	k.checkLPBounds()
	k.checkMPCCosts()
	if p.traced {
		k.summarize()
	}
	return k.o, nil
}

func (k *kernels) warmUp(in *facloc.Instance, seed int64) error {
	for _, name := range []string{"greedy-par", "pd-par"} {
		if _, err := facloc.Solve(context.Background(), name, in, facloc.Options{Seed: seed}); err != nil {
			return fmt.Errorf("kernels warm-up %s: %w", name, err)
		}
	}
	return nil
}

// iteration runs the four kernels once each on fresh inputs. A collection
// runs first, so the garbage of generating the inputs is not collected
// inside a timed call.
func (k *kernels) iteration(in *kernelInput, iter int64) {
	runtime.GC()
	root := k.o.rec.add("kernels.iteration", time.Now(), time.Now(), -1, iter)
	k.ufl("greedy-par", in, k.greedy, root, iter)
	k.ufl("pd-par", in, k.pd, root, iter)
	k.lpRound(in, root, iter)
	k.kmedianMPC(in, root, iter)
	if k.traced {
		k.layerCalls(in, root, iter)
	}
	k.o.rec.end(root, time.Now())
}

func (k *kernels) options(seed int64) facloc.Options {
	opts := facloc.Options{Seed: seed}
	if k.traced {
		opts.TrackCost = true
		opts.Trace = k.log
	}
	return opts
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// ufl times one registry solve of the big instance and checks its answer.
func (k *kernels) ufl(name string, in *kernelInput, c *class, root int, iter int64) {
	opts := k.options(in.seed)
	ref := refLoopMS()
	cpu0 := cpuTime()
	t0 := time.Now()
	rep, err := facloc.Solve(context.Background(), name, in.big, opts)
	t1 := time.Now()
	cpu := cpuTime() - cpu0
	k.o.attempted++
	if err != nil {
		k.o.failed++
		k.o.notef("%s: %v", name, err)
		return
	}
	c.add(msOf(t1.Sub(t0)), ref)
	checkUFL(k.o, name, in.big, rep.Solution)
	if !k.traced {
		return
	}
	k.cpu += cpu
	k.wall += t1.Sub(t0)
	l := uflLayers[name]
	call := k.o.rec.add("facloc."+name, t0, t1, root, iter)
	rounds := 0
	for _, ph := range phases(t0, t1, k.log.take(), l.module+".post") {
		k.o.rec.add(ph.name, ph.start, ph.end, call, iter)
		switch ph.name {
		case l.round:
			rounds++
			k.add(l.round+"_ms_p50", ph.ms())
		case l.module + ".pre_round":
			k.add(l.module+".pre_round_ms", ph.ms())
		}
	}
	k.add(l.rounds, float64(rounds))
	k.add(l.module+".work", float64(rep.Stats.Work))
	k.add(l.module+".span", float64(rep.Stats.Span))
}

// uflLayer names the layer behind a registry solver and its round span.
type uflLayer struct{ module, round, rounds string }

var uflLayers = map[string]uflLayer{
	"greedy-par": {"greedy", "greedy.round", "greedy.rounds"},
	"pd-par":     {"primaldual", "primaldual.iter", "primaldual.iters"},
}

// lpRound times lp-round on the small instance. The traced pass makes the
// same two calls the registry entry makes, timed one by one: the LP solve,
// then the rounding of its optimum.
func (k *kernels) lpRound(in *kernelInput, root int, iter int64) {
	k.o.attempted++
	opts := k.options(in.seed)
	ref := refLoopMS()
	t0 := time.Now()
	if !k.traced {
		rep, err := facloc.Solve(context.Background(), "lp-round", in.small, opts)
		t1 := time.Now()
		if err != nil {
			k.o.failed++
			k.o.notef("lp-round: %v", err)
			return
		}
		k.lpr.add(msOf(t1.Sub(t0)), ref)
		checkUFL(k.o, "lp-round", in.small, rep.Solution)
		return
	}
	frac, err := lp.SolveFacility(in.small)
	t1 := time.Now()
	var res *facloc.Result
	if err == nil {
		res, err = facloc.LPRoundFrac(in.small, frac, opts)
	}
	t2 := time.Now()
	k.log.take() // rounding emits no round events today
	if err != nil {
		k.o.failed++
		k.o.notef("lp-round: %v", err)
		return
	}
	k.lpr.add(msOf(t2.Sub(t0)), ref)
	call := k.o.rec.add("facloc.lp-round", t0, t2, root, iter)
	k.o.rec.add("lp.solve", t0, t1, call, iter)
	k.o.rec.add("rounding.round", t1, t2, call, iter)
	k.add("lp.solve_ms", msOf(t1.Sub(t0)))
	k.add("rounding.round_ms", msOf(t2.Sub(t1)))
	checkUFL(k.o, "lp-round", in.small, res.Solution)
	if c := res.Solution.Cost(); c > lpSlack*frac.Value*(1+1e-9) {
		k.o.checkf("lp-round: cost %v above 4(1+ε) × LP value %v", c, frac.Value)
	}
}

// kmedianMPC times one streamed kmedian-mpc solve over the in-memory stream.
func (k *kernels) kmedianMPC(in *kernelInput, root int, iter int64) {
	opts := k.options(in.seed)
	var r io.Reader = bytes.NewReader(in.stream)
	if k.traced {
		r = &markReader{r: r, log: k.log}
	}
	ref := refLoopMS()
	t0 := time.Now()
	rep, err := facloc.SolveMPCStream(context.Background(), "kmedian-mpc", r, opts, facloc.MPCOptions{BudgetBytes: mpcBudget})
	t1 := time.Now()
	k.o.attempted++
	if err != nil {
		k.o.failed++
		k.o.notef("kmedian-mpc: %v", err)
		return
	}
	k.kmpc.add(msOf(t1.Sub(t0)), ref)
	if rep.PeakBytes > mpcBudget {
		k.o.checkf("kmedian-mpc: peak %d bytes over the %d budget", rep.PeakBytes, mpcBudget)
	}
	if n := len(rep.Centers); n != 2*mpcK || !(rep.Estimate > 0) {
		k.o.checkf("kmedian-mpc: %d center coordinates (want %d), estimate %v", n, 2*mpcK, rep.Estimate)
	} else if !k.traced && len(k.mpcChecked) < mpcChecks {
		k.mpcChecked = append(k.mpcChecked, mpcAnswer{in.seed, rep})
	}
	if !k.traced {
		return
	}
	call := k.o.rec.add("facloc.kmedian-mpc", t0, t1, root, iter)
	sums := map[string]float64{}
	for _, ph := range phases(t0, t1, k.log.take(), "mpc.root_solve") {
		k.o.rec.add(ph.name, ph.start, ph.end, call, iter)
		sums[ph.name] += ph.ms()
	}
	for _, name := range []string{"cover", "seed", "sample"} {
		if v, ok := sums["coreset."+name]; ok {
			k.add("coreset."+name+"_ms", v)
		}
	}
	k.add("mpc.rounds", float64(rep.Rounds))
	k.add("mpc.chunks", float64(rep.Chunks))
	k.add("mpc.merge_bytes", float64(rep.MergeBytes))
	k.add("mpc.peak_bytes", float64(rep.PeakBytes))
}

// layerCalls times the metric module's calls on this iteration's inputs:
// the presort the greedy and primal-dual engines run, and the distance
// block of the same point set.
func (k *kernels) layerCalls(in *kernelInput, root int, iter int64) {
	t0 := time.Now()
	metric.SortedOrders(nil, in.big.D)
	t1 := time.Now()
	sp := metric.UniformBox(nil, rand.New(rand.NewSource(in.seed)), kernNF+kernNC, 2, 10)
	fac, cli := make([]int, kernNF), make([]int, kernNC)
	for i := range fac {
		fac[i] = i
	}
	for j := range cli {
		cli[j] = kernNF + j
	}
	t2 := time.Now()
	metric.SubmatrixRows(nil, sp, fac, cli)
	t3 := time.Now()
	k.o.rec.add("metric.presort", t0, t1, root, iter)
	k.o.rec.add("metric.dist_build", t2, t3, root, iter)
	k.add("metric.presort_ms", msOf(t1.Sub(t0)))
	k.add("metric.dist_build_ms", msOf(t3.Sub(t2)))
}

func (k *kernels) add(name string, v float64) { k.samples[name] = append(k.samples[name], v) }

// summarize turns the traced samples into per-layer metrics: the median
// over calls (over rounds for the per-round times).
func (k *kernels) summarize() {
	for name, xs := range k.samples {
		k.o.layers[name] = median(xs)
	}
	util := ratio{k.cpu.Seconds(), k.wall.Seconds() * float64(runtime.GOMAXPROCS(0))}
	k.o.layers["par.cpu_util"] = util.Value()
	k.o.notef("par.cpu_util = %s over the greedy-par and pd-par calls",
		util.describe("s CPU", fmt.Sprintf("s (%.4g s wall × GOMAXPROCS %d)", k.wall.Seconds(), runtime.GOMAXPROCS(0))))
	k.o.notef("coreset.cover_ms: k-median coresets seed and sample; the cover phase runs only for k-center and UFL clients")
	k.o.notef("greedy/primaldual.pre_round_ms: call start to the first round event, less one median round")
}

// checkLPBounds re-derives the LP value of a few lp-round instances after
// an untraced window and checks the 4(1+ε) guarantee against it.
func (k *kernels) checkLPBounds() {
	for _, in := range k.lpChecked {
		rep, err := facloc.Solve(context.Background(), "lp-round", in.small, facloc.Options{Seed: in.seed})
		if err != nil {
			k.o.checkf("lp-round recheck: %v", err)
			continue
		}
		v, err := facloc.LPLowerBound(in.small)
		if err != nil {
			k.o.checkf("lp-round LP value: %v", err)
			continue
		}
		if c := rep.Solution.Cost(); c > lpSlack*v*(1+1e-9) {
			k.o.checkf("lp-round: cost %v above 4(1+ε) × LP value %v", c, v)
		}
	}
}

// checkMPCCosts regenerates the point sets of a few kmedian-mpc answers
// after an untraced window. The reported centres must be k distinct input
// points (coreset points are input points), and the reported estimate must
// lie within the composed coreset distortion of the k-median cost of those
// centres over every point.
func (k *kernels) checkMPCCosts() {
	for _, a := range k.mpcChecked {
		sp := mpcPoints(a.seed)
		centers := map[[2]float64]bool{}
		for c := 0; c < len(a.rep.Centers); c += 2 {
			centers[[2]float64{a.rep.Centers[c], a.rep.Centers[c+1]}] = false
		}
		cost := 0.0
		for p := 0; p < mpcN; p++ {
			x, y := sp.Coords[2*p], sp.Coords[2*p+1]
			if _, ok := centers[[2]float64{x, y}]; ok {
				centers[[2]float64{x, y}] = true
			}
			best := math.Inf(1)
			for c := 0; c < len(a.rep.Centers); c += 2 {
				best = math.Min(best, math.Hypot(x-a.rep.Centers[c], y-a.rep.Centers[c+1]))
			}
			cost += best
		}
		found := 0
		for _, seen := range centers {
			if seen {
				found++
			}
		}
		if found != mpcK {
			k.o.checkf("kmedian-mpc: %d of the %d reported centres are distinct input points", found, mpcK)
		}
		if eps := a.rep.EffEpsilon; math.Abs(a.rep.Estimate-cost) > (eps+1e-9)*cost {
			k.o.checkf("kmedian-mpc: estimate %v off the recomputed cost %v by more than ε = %v", a.rep.Estimate, cost, eps)
		}
	}
}

// checkUFL verifies a facility-location answer: feasible, its recorded cost
// equal to a recomputation, and no lower than the Equation-2 γ bound.
func checkUFL(o *outcome, what string, in *facloc.Instance, sol *facloc.Solution) {
	if err := sol.CheckFeasible(in, 1e-9*(1+sol.Cost())); err != nil {
		o.checkf("%s: %v", what, err)
		return
	}
	if lower, _ := facloc.GammaBounds(in); sol.Cost() < lower*(1-1e-12) {
		o.checkf("%s: cost %v below the γ lower bound %v", what, sol.Cost(), lower)
	}
}

// firstSetup is true until the process's first set-up repetition starts.
var firstSetup = true

// setupClock returns when a set-up repetition began: the process's first
// one is timed from process start.
func setupClock() time.Time {
	if firstSetup {
		firstSetup = false
		return procStart
	}
	return time.Now()
}
