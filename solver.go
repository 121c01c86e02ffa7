package facloc

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/greedy"
	"repro/internal/kcenter"
	"repro/internal/localsearch"
	"repro/internal/lp"
	"repro/internal/par"
	"repro/internal/primaldual"
	"repro/internal/rounding"
)

// Guarantee describes a solver's proven approximation guarantee, the quantity
// the conformance suite enforces against the exact optimum.
type Guarantee struct {
	// Factor is the approximation factor: cost ≤ Bound(ε)·OPT.
	Factor float64
	// EpsSlack marks guarantees of the (c+ε) / c(1+O(ε)) form, whose bound
	// widens with Options.Epsilon.
	EpsSlack bool
	// Exact marks solvers that return the optimum (Factor is ignored).
	Exact bool
	// Note cites the theorem or paper the guarantee comes from.
	Note string
}

// Bound returns the cost bound factor at slack ε: Factor·(1+ε) for EpsSlack
// guarantees, Factor otherwise, and 1 for exact solvers.
func (g Guarantee) Bound(eps float64) float64 {
	if g.Exact {
		return 1
	}
	if g.EpsSlack {
		return g.Factor * (1 + eps)
	}
	return g.Factor
}

func (g Guarantee) String() string {
	switch {
	case g.Exact:
		return "exact"
	case g.EpsSlack:
		return fmt.Sprintf("%.4g(1+ε)-approx (%s)", g.Factor, g.Note)
	default:
		return fmt.Sprintf("%.4g-approx (%s)", g.Factor, g.Note)
	}
}

// Solver is a registered uncapacitated-facility-location algorithm. Solve
// must honor ctx: implementations backed by round-based algorithms check it
// between rounds and return ctx.Err() (e.g. context.DeadlineExceeded) instead
// of a partial solution.
type Solver interface {
	Name() string
	Guarantee() Guarantee
	Solve(ctx context.Context, pc *par.Ctx, in *core.Instance, opts Options) (*Solution, error)
}

// KSolver is a registered k-clustering algorithm; Objective reports which of
// the §2 objectives its guarantee is stated for. SolveK has the same
// cancellation contract as Solver.Solve.
type KSolver interface {
	Name() string
	Objective() Objective
	Guarantee() Guarantee
	SolveK(ctx context.Context, pc *par.Ctx, ki *core.KInstance, opts Options) (*KSolution, error)
}

// Report is the uniform outcome of a registry solve: which solver ran, the
// guarantee it claims, the solution, and the measured work/span/wall-time.
type Report struct {
	Solver    string
	Guarantee Guarantee
	Solution  *Solution
	Stats     Stats
}

// KReport is the k-clustering counterpart of Report.
type KReport struct {
	Solver    string
	Guarantee Guarantee
	Solution  *KSolution
	Stats     Stats
}

// ---------- registry ----------

var registry = struct {
	sync.RWMutex
	ufl map[string]Solver
	k   map[string]KSolver
}{ufl: map[string]Solver{}, k: map[string]KSolver{}}

// Register adds a UFL solver under its Name. It panics on empty or duplicate
// names — registration is an init-time, programmer-error surface.
func Register(s Solver) {
	registry.Lock()
	defer registry.Unlock()
	name := s.Name()
	if name == "" {
		panic("facloc: Register with empty solver name")
	}
	if _, dup := registry.ufl[name]; dup {
		panic("facloc: duplicate solver " + name)
	}
	registry.ufl[name] = s
}

// RegisterK adds a k-clustering solver under its Name, with the same rules as
// Register.
func RegisterK(s KSolver) {
	registry.Lock()
	defer registry.Unlock()
	name := s.Name()
	if name == "" {
		panic("facloc: RegisterK with empty solver name")
	}
	if _, dup := registry.k[name]; dup {
		panic("facloc: duplicate k-solver " + name)
	}
	registry.k[name] = s
}

// Lookup returns the registered UFL solver with the given name.
func Lookup(name string) (Solver, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.ufl[name]
	return s, ok
}

// LookupK returns the registered k-clustering solver with the given name.
func LookupK(name string) (KSolver, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.k[name]
	return s, ok
}

// Solvers returns every registered UFL solver, sorted by name.
func Solvers() []Solver {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Solver, 0, len(registry.ufl))
	for _, s := range registry.ufl {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// KSolvers returns every registered k-clustering solver, sorted by name.
func KSolvers() []KSolver {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]KSolver, 0, len(registry.k))
	for _, s := range registry.k {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Solve looks up a registered solver by name and runs it, assembling the
// uniform Report (tally from Options.TrackCost, wall time always).
func Solve(ctx context.Context, name string, in *Instance, opts Options) (*Report, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("facloc: unknown solver %q", name)
	}
	return SolveWith(ctx, s, in, opts)
}

// SolveWith runs the given solver and assembles its Report.
func SolveWith(ctx context.Context, s Solver, in *Instance, opts Options) (*Report, error) {
	if err := par.CtxErr(ctx); err != nil {
		return nil, err
	}
	c, tally := opts.ctx()
	start := time.Now()
	sol, err := s.Solve(ctx, c, in, opts)
	if err != nil {
		return nil, err
	}
	return &Report{
		Solver:    s.Name(),
		Guarantee: s.Guarantee(),
		Solution:  sol,
		Stats:     statsFrom(tally, time.Since(start)),
	}, nil
}

// SolveK looks up a registered k-clustering solver by name and runs it.
func SolveK(ctx context.Context, name string, ki *KInstance, opts Options) (*KReport, error) {
	s, ok := LookupK(name)
	if !ok {
		return nil, fmt.Errorf("facloc: unknown k-solver %q", name)
	}
	return SolveKWith(ctx, s, ki, opts)
}

// SolveKWith runs the given k-clustering solver and assembles its KReport.
func SolveKWith(ctx context.Context, s KSolver, ki *KInstance, opts Options) (*KReport, error) {
	if err := par.CtxErr(ctx); err != nil {
		return nil, err
	}
	c, tally := opts.ctx()
	start := time.Now()
	sol, err := s.SolveK(ctx, c, ki, opts)
	if err != nil {
		return nil, err
	}
	return &KReport{
		Solver:    s.Name(),
		Guarantee: s.Guarantee(),
		Solution:  sol,
		Stats:     statsFrom(tally, time.Since(start)),
	}, nil
}

// ---------- built-in adapters ----------

type funcSolver struct {
	name string
	g    Guarantee
	fn   func(ctx context.Context, pc *par.Ctx, in *core.Instance, opts Options) (*Solution, error)
}

func (s *funcSolver) Name() string         { return s.name }
func (s *funcSolver) Guarantee() Guarantee { return s.g }
func (s *funcSolver) Solve(ctx context.Context, pc *par.Ctx, in *core.Instance, opts Options) (*Solution, error) {
	// The built-in algorithms walk dense rows; lazy point-backed instances
	// are materialized here (bounded by Options.DenseLimit, default
	// core.DenseLimit — past it the error points at the *-coreset solvers,
	// which never densify).
	in, err := in.DensifiedCap(pc, opts.DenseLimit)
	if err != nil {
		return nil, err
	}
	return s.fn(ctx, pc, in, opts)
}

type funcKSolver struct {
	name string
	obj  Objective
	g    Guarantee
	fn   func(ctx context.Context, pc *par.Ctx, ki *core.KInstance, opts Options) (*KSolution, error)
}

func (s *funcKSolver) Name() string         { return s.name }
func (s *funcKSolver) Objective() Objective { return s.obj }
func (s *funcKSolver) Guarantee() Guarantee { return s.g }
func (s *funcKSolver) SolveK(ctx context.Context, pc *par.Ctx, ki *core.KInstance, opts Options) (*KSolution, error) {
	// See funcSolver.Solve: dense algorithms densify lazy instances up to
	// Options.DenseLimit (default core.DenseLimit); the *-coreset wrappers
	// never take this path.
	ki, err := ki.DensifiedCap(pc, opts.DenseLimit)
	if err != nil {
		return nil, err
	}
	return s.fn(ctx, pc, ki, opts)
}

func init() {
	Register(&funcSolver{
		name: "greedy-par",
		g:    Guarantee{Factor: 3.722, EpsSlack: true, Note: "Theorem 4.9"},
		fn: func(ctx context.Context, pc *par.Ctx, in *core.Instance, o Options) (*Solution, error) {
			res, err := greedy.Parallel(ctx, pc, in, &greedy.Options{Epsilon: o.eps(), Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			return res.Sol, nil
		},
	})
	Register(&funcSolver{
		name: "greedy-seq",
		g:    Guarantee{Factor: 1.861, Note: "JMS greedy [JMM+03]"},
		fn: func(ctx context.Context, pc *par.Ctx, in *core.Instance, o Options) (*Solution, error) {
			if err := par.CtxErr(ctx); err != nil {
				return nil, err
			}
			return greedy.SequentialJMS(pc, in).Sol, nil
		},
	})
	Register(&funcSolver{
		name: "pd-par",
		g:    Guarantee{Factor: 3, EpsSlack: true, Note: "Theorem 5.4"},
		fn: func(ctx context.Context, pc *par.Ctx, in *core.Instance, o Options) (*Solution, error) {
			res, err := primaldual.Parallel(ctx, pc, in, &primaldual.Options{Epsilon: o.eps(), Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			return res.Sol, nil
		},
	})
	Register(&funcSolver{
		name: "pd-seq",
		g:    Guarantee{Factor: 3, Note: "Jain–Vazirani [JV01]"},
		fn: func(ctx context.Context, pc *par.Ctx, in *core.Instance, o Options) (*Solution, error) {
			if err := par.CtxErr(ctx); err != nil {
				return nil, err
			}
			return primaldual.SequentialJV(pc, in).Sol, nil
		},
	})
	Register(&funcSolver{
		name: "local-search",
		g:    Guarantee{Factor: 3, EpsSlack: true, Note: "§7 remark, [AGK+04]"},
		fn: func(ctx context.Context, pc *par.Ctx, in *core.Instance, o Options) (*Solution, error) {
			res, err := localsearch.UFLLocalSearch(ctx, pc, in, &localsearch.UFLOptions{Epsilon: o.eps()})
			if err != nil {
				return nil, err
			}
			return res.Sol, nil
		},
	})
	Register(&funcSolver{
		name: "lp-round",
		g:    Guarantee{Factor: 4, EpsSlack: true, Note: "Theorem 6.5, vs the LP optimum ≤ OPT"},
		fn: func(ctx context.Context, pc *par.Ctx, in *core.Instance, o Options) (*Solution, error) {
			if err := par.CtxErr(ctx); err != nil {
				return nil, err
			}
			frac, err := lp.SolveFacility(in)
			if err != nil {
				return nil, fmt.Errorf("facloc: solving the facility LP: %w", err)
			}
			pc.Emit(par.TraceEvent{Solver: "lp", Phase: "phase1", Round: 0, Work: int64(frac.Phase1Pivots)})
			pc.Emit(par.TraceEvent{Solver: "lp", Phase: "phase2", Round: 1, Work: int64(frac.Phase2Pivots)})
			if err := par.CtxErr(ctx); err != nil {
				return nil, err
			}
			res := rounding.Round(pc, in, frac, &rounding.Options{Epsilon: o.eps(), Seed: o.Seed})
			return res.Sol, nil
		},
	})
	Register(&funcSolver{
		name: "opt",
		g:    Guarantee{Exact: true, Note: "subset enumeration"},
		fn: func(ctx context.Context, pc *par.Ctx, in *core.Instance, o Options) (*Solution, error) {
			if err := par.CtxErr(ctx); err != nil {
				return nil, err
			}
			if in.NF > exact.MaxEnumFacilities {
				return nil, fmt.Errorf("facloc: %d facilities exceed the enumeration limit %d", in.NF, exact.MaxEnumFacilities)
			}
			return exact.FacilityOPT(pc, in), nil
		},
	})

	RegisterK(&funcKSolver{
		name: "kcenter",
		obj:  KCenter,
		g:    Guarantee{Factor: 2, Note: "Theorem 6.1 (Hochbaum–Shmoys)"},
		fn: func(ctx context.Context, pc *par.Ctx, ki *core.KInstance, o Options) (*KSolution, error) {
			res, err := kcenter.HochbaumShmoys(ctx, pc, ki, uint64(o.Seed))
			if err != nil {
				return nil, err
			}
			return res.Sol, nil
		},
	})
	RegisterK(&funcKSolver{
		name: "kcenter-gonzalez",
		obj:  KCenter,
		g:    Guarantee{Factor: 2, Note: "Gonzalez farthest-point [Gon85]"},
		fn: func(ctx context.Context, pc *par.Ctx, ki *core.KInstance, o Options) (*KSolution, error) {
			if err := par.CtxErr(ctx); err != nil {
				return nil, err
			}
			return kcenter.Gonzalez(pc, ki, int(o.Seed)%maxInt(ki.N, 1)), nil
		},
	})
	RegisterK(&funcKSolver{
		name: "kmedian",
		obj:  KMedian,
		g:    Guarantee{Factor: 5, EpsSlack: true, Note: "Theorem 7.1"},
		fn: func(ctx context.Context, pc *par.Ctx, ki *core.KInstance, o Options) (*KSolution, error) {
			res, err := localsearch.KMedian(ctx, pc, ki, &localsearch.Options{Epsilon: o.eps(), Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			return res.Sol, nil
		},
	})
	RegisterK(&funcKSolver{
		name: "kmedian-2swap",
		obj:  KMedian,
		g:    Guarantee{Factor: 4, EpsSlack: true, Note: "§7 remark, 3+2/p for p=2"},
		fn: func(ctx context.Context, pc *par.Ctx, ki *core.KInstance, o Options) (*KSolution, error) {
			res, err := localsearch.KMedian(ctx, pc, ki, &localsearch.Options{Epsilon: o.eps(), Seed: o.Seed, SwapSize: 2})
			if err != nil {
				return nil, err
			}
			return res.Sol, nil
		},
	})
	RegisterK(&funcKSolver{
		name: "kmeans",
		obj:  KMeans,
		g:    Guarantee{Factor: 81, EpsSlack: true, Note: "§7, general metrics"},
		fn: func(ctx context.Context, pc *par.Ctx, ki *core.KInstance, o Options) (*KSolution, error) {
			res, err := localsearch.KMeans(ctx, pc, ki, &localsearch.Options{Epsilon: o.eps(), Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			return res.Sol, nil
		},
	})
	for _, obj := range []Objective{KCenter, KMedian, KMeans} {
		obj := obj
		RegisterK(&funcKSolver{
			name: obj.String() + "-opt",
			obj:  obj,
			g:    Guarantee{Exact: true, Note: "C(n,k) enumeration"},
			fn: func(ctx context.Context, pc *par.Ctx, ki *core.KInstance, o Options) (*KSolution, error) {
				if err := par.CtxErr(ctx); err != nil {
					return nil, err
				}
				if !exact.FeasibleKCluster(ki, 1<<32) {
					return nil, fmt.Errorf("facloc: C(%d,%d) center sets exceed the enumeration budget", ki.N, ki.K)
				}
				return exact.KClusterOPT(pc, ki, core.KObjective(obj)), nil
			},
		})
	}

	// Composed coreset entries ride on the solvers registered above.
	registerSketched()
	registerMPC()
}
