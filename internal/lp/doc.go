// Package lp is the linear-programming substrate: a from-scratch two-phase
// primal simplex solver over a dense tableau with sparse pivots and dual
// extraction, and the builder for the Figure-1 facility-location LP.
//
// The paper's LP-rounding algorithm (§6.2, Theorem 6.5) takes an *optimal*
// primal solution as input — "we do not know how to solve the linear program
// for facility location in polylogarithmic depth" — so this solver plays the
// role of the oracle the paper assumes. Its optimal value is also the
// standard lower bound on integral OPT used by the experiment harness to
// measure approximation ratios on instances too large to brute-force.
//
// Costs: the simplex solver is the one deliberately sequential component of
// the repository (the paper treats the LP oracle as given), so it charges
// nothing to a par.Tally; the builders in facility.go operate on the flat
// metric.DistMatrix rows of the instance and are cheap relative to a solve.
package lp
