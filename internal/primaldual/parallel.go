package primaldual

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/metric"
	"repro/internal/par"
)

// Options configures the parallel primal-dual algorithm.
type Options struct {
	// Epsilon is the (1+ε) geometric step of the dual schedule; (0,1]
	// typical. Defaults to 0.3.
	Epsilon float64
	// Seed drives the MaxUDom postprocessing randomness.
	Seed int64
	// DenseEngine selects the full-rescan payment/freeze sweeps instead of
	// the live-edge prefix ones. The two are bitwise-equivalent; the dense
	// engine exists as the reference the equivalence tests compare against.
	DenseEngine bool
}

func (o *Options) epsilon() float64 {
	if o == nil || o.Epsilon <= 0 {
		return 0.3
	}
	return o.Epsilon
}

func (o *Options) seed() int64 {
	if o == nil {
		return 0
	}
	return o.Seed
}

func (o *Options) denseEngine() bool {
	return o != nil && o.DenseEngine
}

// pdState is the solver arena shared by both engines: duals, freeze/open
// flags, the presorted client orders, and the incremental counters that
// replace per-iteration population counts.
type pdState struct {
	c       *par.Ctx
	rows    par.Ctx // schedules per-facility sweeps by the cost of a client row
	in      *core.Instance
	nf, nc  int
	onePlus float64

	order *par.Dense[int32] // per-facility client indices by ascending distance

	alpha  []float64
	frozen []bool
	opened []bool // F_T: opened during the main loop
	isFree []bool // F₀: free facilities from preprocessing
	freely []int  // π for freely connected clients, -1 otherwise

	unfrozen int // clients not yet frozen
	unopened int // facilities neither opened nor free

	openList []int32 // opened ∪ free facilities, in opening order
	openPtr  []int32 // per-facility freeze pointer into its sorted order

	justOpened []bool // scratch: facilities crossing the payment bar this step

	tl  float64 // current dual level
	thr float64 // (1+ε)·tl, the reach threshold at this level

	res *Result
}

// pdEngine is the per-iteration sweep kernel: Step 2 (open facilities whose
// slack payments cover their cost) and Step 3 (freeze clients that reach an
// open facility). The incremental engine touches only the edges with
// positive slack — a prefix of each facility's presorted order; the dense
// engine rescans everything. Both sum payments in presorted-row order over
// the same positive terms, so they are bitwise-equivalent.
type pdEngine interface {
	payments()
	freezes()
}

func newPDState(c *par.Ctx, in *core.Instance, eps float64) *pdState {
	s := &pdState{
		c: c, rows: c.PerRow(in.NC), in: in, nf: in.NF, nc: in.NC, onePlus: 1 + eps,
		order:      metric.SortedOrders(c, in.D),
		alpha:      make([]float64, in.NC),
		frozen:     make([]bool, in.NC),
		opened:     make([]bool, in.NF),
		isFree:     make([]bool, in.NF),
		freely:     make([]int, in.NC),
		unfrozen:   in.NC,
		unopened:   in.NF,
		openList:   make([]int32, 0, in.NF),
		openPtr:    make([]int32, in.NF),
		justOpened: make([]bool, in.NF),
		res:        &Result{},
	}
	for j := range s.freely {
		s.freely[j] = -1
	}
	return s
}

// markOpen records facility i as open (main loop or preprocessing-free) for
// the freeze sweeps.
func (s *pdState) markOpen(i int) {
	s.openList = append(s.openList, int32(i))
}

// foldJustOpened promotes the facilities the payment sweep flagged, in
// ascending order so openList stays deterministic.
func (s *pdState) foldJustOpened() {
	for i := 0; i < s.nf; i++ {
		if s.justOpened[i] {
			s.justOpened[i] = false
			s.opened[i] = true
			s.unopened--
			s.markOpen(i)
		}
	}
}

// Parallel runs Algorithm 5.1 with the γ/m² preprocessing and the MaxUDom
// postprocessing, yielding a (3+ε)-approximation (Theorem 5.4). The context
// is checked at every dual-raising iteration: on cancellation or deadline the
// call abandons the partial solve and returns ctx.Err() with a nil result.
func Parallel(ctx context.Context, c *par.Ctx, in *core.Instance, opts *Options) (*Result, error) {
	eps := opts.epsilon()
	nf, nc := in.NF, in.NC
	m := float64(in.M())

	gb := core.Gammas(c, in)
	gamma := gb.Gamma

	if gamma == 0 {
		return degenerateZeroGamma(c, in), nil
	}

	s := newPDState(c, in, eps)
	var eng pdEngine
	if opts.denseEngine() {
		eng = &pdDense{s}
	} else {
		eng = newPDIncr(s)
	}
	res := s.res
	onePlus := s.onePlus

	base := gamma / (m * m)

	// Preprocessing (free facilities): open i when the slack-free payments
	// at level γ/m² already cover it; absorb clients within γ/m². A weight-w
	// client pays w·β, exactly as w colocated unit clients would. Payments
	// sum over the presorted prefix d < γ/m² — the only positive terms.
	var preTouched atomic.Int64
	s.rows.For(nf, func(i int) {
		row := s.order.Row(i)
		drow := in.D.Row(i)
		paid := 0.0
		scanned := 0
		for _, cj := range row {
			d := drow[cj]
			if d >= base {
				break // sorted: every later client has zero slack
			}
			paid += in.W(int(cj)) * (base - d)
			scanned++
		}
		preTouched.Add(int64(scanned))
		if paid >= in.FacCost[i] {
			s.isFree[i] = true
		}
	})
	c.Charge(preTouched.Load()+int64(nf), 1)
	for j := 0; j < nc; j++ {
		for i := 0; i < nf; i++ {
			if s.isFree[i] && in.Dist(i, j) <= base {
				s.frozen[j] = true
				s.alpha[j] = 0
				s.freely[j] = i
				s.unfrozen--
				break
			}
		}
	}
	c.Charge(int64(nf)*int64(nc), 1)
	for i := 0; i < nf; i++ {
		if s.isFree[i] {
			res.FreeFacilities++
			s.unopened--
			s.markOpen(i)
			// Clients within base froze above; fast-forward the freeze
			// pointer past them so later sweeps resume where preprocessing
			// stopped. (Unfrozen clients inside the prefix — those whose
			// nearest free facility is a different one — are still frozen,
			// just against that other facility, so skipping is safe: the
			// frozen bit is what the sweep checks.)
			row := s.order.Row(i)
			drow := in.D.Row(i)
			p := int32(0)
			for int(p) < nc && drow[row[p]] <= base {
				p++
			}
			s.openPtr[i] = p
		}
	}

	// Main loop: α_j = γ/m²·(1+ε)^ℓ for unfrozen clients.
	maxIter := int(3*math.Log(m+2)/math.Log(onePlus)) + int(math.Log(float64(nc)+2)/math.Log(onePlus)) + 16
	raiseBody := func(j int) {
		if !s.frozen[j] {
			s.alpha[j] = s.tl
		}
	}
	s.tl = base
	var prevCost par.Cost
	if c.Tracing() {
		prevCost = c.Tally.Snapshot()
	}
	for iter := 0; iter < maxIter; iter++ {
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		if s.unfrozen == 0 {
			break
		}
		if s.unopened == 0 {
			// All facilities open: the remaining clients reach the nearest
			// open facility at α_j = min_i d(j,i).
			c.For(nc, func(j int) {
				if s.frozen[j] {
					return
				}
				best := math.Inf(1)
				for i := 0; i < nf; i++ {
					if s.opened[i] || s.isFree[i] {
						if d := in.Dist(i, j); d < best {
							best = d
						}
					}
				}
				s.alpha[j] = best
				s.frozen[j] = true
			})
			c.Charge(int64(nf)*int64(nc), 1)
			s.unfrozen = 0
			break
		}
		res.Iterations++
		s.thr = onePlus * s.tl
		// Step 1: raise unfrozen duals to the schedule level.
		c.For(nc, raiseBody)
		// Step 2: open facilities whose (weighted) slack payments cover them.
		eng.payments()
		s.foldJustOpened()
		// Step 3: freeze clients that reach an opened facility (free
		// facilities are open too — they were opened in preprocessing).
		eng.freezes()
		if c.Tracing() {
			now := c.Tally.Snapshot()
			d := now.Sub(prevCost)
			prevCost = now
			c.Emit(par.TraceEvent{
				Solver: "primal-dual", Phase: "round", Round: res.Iterations - 1,
				Work: d.Work, Span: d.Span,
				Live: int64(s.unfrozen), Opened: len(s.openList),
			})
		}
		s.tl *= onePlus
	}
	// Unconditional feasibility: if the iteration cap fired with clients
	// still unfrozen (cannot happen within the bound), connect them.
	c.For(nc, func(j int) {
		if s.frozen[j] {
			return
		}
		best := math.Inf(1)
		for i := 0; i < nf; i++ {
			if d := in.Dist(i, j); d < best {
				best = d
			}
		}
		s.alpha[j] = best
		s.frozen[j] = true
	})
	return s.finish(opts), nil
}

// degenerateZeroGamma handles γ = 0: every client has a zero-cost facility at
// distance 0. Open each client's γ_j-facility; total cost 0.
func degenerateZeroGamma(c *par.Ctx, in *core.Instance) *Result {
	nf, nc := in.NF, in.NC
	res := &Result{}
	opened := make([]bool, nf)
	for j := 0; j < nc; j++ {
		for i := 0; i < nf; i++ {
			if in.FacCost[i]+in.Dist(i, j) == 0 {
				opened[i] = true
				break
			}
		}
	}
	open := par.PackIndex(c, nf, func(i int) bool { return opened[i] })
	res.Alpha = make([]float64, nc)
	res.Sol = core.EvalOpen(c, in, open)
	res.Pi = res.Sol.Assign
	return res
}

// finish is the shared postprocessing of the parallel and distributed solvers:
// given converged duals (alpha/frozen/freely) and the tentatively open set, it
// builds H, runs MaxUDom, derives the π assignment, and evaluates FA = I ∪ F₀.
// It is a pure function of the state, so shards of a distributed solve that
// hold identical mirrors produce bitwise-identical Results.
func (s *pdState) finish(opts *Options) *Result {
	c, in, nf, nc := s.c, s.in, s.nf, s.nc
	onePlus := s.onePlus
	res := s.res
	alpha := s.alpha
	opened := s.opened
	isFree := s.isFree
	freely := s.freely

	// H = (F_T, C, E): edges where (1+ε)α_j > d(j,i), i tentatively open.
	ft := par.PackIndex(c, nf, func(i int) bool { return opened[i] })
	res.TentativelyOpen = len(ft)
	edge := func(u, j int) bool {
		return onePlus*alpha[j] > in.Dist(ft[u], j)
	}

	// Postprocessing: I = MaxUDom(H) — each client pays at most one member.
	sel, st := domset.MaxUDom(c, len(ft), nc, edge, nil, uint64(opts.seed()))
	res.DomRounds = st.Rounds
	inI := make([]bool, nf)
	for _, u := range sel {
		inI[ft[u]] = true
	}

	// π assignment for the analysis (§5.1): freely → C₀, direct → C₁,
	// otherwise indirect via a two-hop neighbor.
	pi := make([]int, nc)
	c.For(nc, func(j int) {
		if freely[j] >= 0 {
			pi[j] = freely[j]
			return
		}
		// Case 2: an I-facility with an H-edge to j (unique if it exists).
		for _, u := range sel {
			if edge(u, j) {
				pi[j] = ft[u]
				return
			}
		}
		// Case 3: an I-facility within the non-strict reach set ϕ(j).
		for _, u := range sel {
			if onePlus*alpha[j] >= in.Dist(ft[u], j) {
				pi[j] = ft[u]
				return
			}
		}
		// Case 4a: the client froze against a free facility farther than
		// γ/m² (so it is not in C₀ and pays no facility) — connect it
		// there: d(j, π_j) ≤ (1+ε)α_j, the direct-connection bound.
		for i := 0; i < nf; i++ {
			if isFree[i] && onePlus*alpha[j] >= in.Dist(i, j) {
				pi[j] = i
				return
			}
		}
		// Case 4b (indirect): the paper routes j through i′ ∈ ϕ(j) to a
		// member i ∈ I sharing a client j′ with i′, giving
		// d(j,i) ≤ (1+ε)α_j + 2(1+ε)α_{j′}. Connecting to the *nearest*
		// member of I ∪ F₀ dominates every such two-hop path, so we use it
		// directly (and it is what EvalOpen charges anyway).
		best, bi := math.Inf(1), -1
		for _, u := range sel {
			if d := in.Dist(ft[u], j); d < best {
				best, bi = d, ft[u]
			}
		}
		for i := 0; i < nf; i++ {
			if isFree[i] {
				if d := in.Dist(i, j); d < best {
					best, bi = d, i
				}
			}
		}
		pi[j] = bi
	})
	c.Charge(int64(nf)*int64(nc), 1)

	// FA = I ∪ F₀.
	var fa []int
	for i := 0; i < nf; i++ {
		if inI[i] || isFree[i] {
			fa = append(fa, i)
		}
	}
	if len(fa) == 0 {
		fa = []int{0}
	}
	// Fix any unassigned π (should not occur): nearest member of FA.
	for j := 0; j < nc; j++ {
		if pi[j] < 0 {
			best, bi := math.Inf(1), fa[0]
			for _, i := range fa {
				if d := in.Dist(i, j); d < best {
					best, bi = d, i
				}
			}
			pi[j] = bi
		}
	}
	// Classify for the experiment counters.
	for j := 0; j < nc; j++ {
		switch {
		case freely[j] >= 0:
			res.Freely++
		case (inI[pi[j]] || isFree[pi[j]]) && onePlus*alpha[j] >= in.Dist(pi[j], j):
			res.Directly++
		default:
			res.Indirectly++
		}
	}

	res.Alpha = alpha
	res.Pi = pi
	res.Sol = core.EvalOpen(c, in, fa)
	return res
}
