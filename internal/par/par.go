package par

import (
	"context"
	"math"
	"runtime"
	"sync"
)

// CtxErr reports ctx's cancellation status; a nil ctx never cancels. It is
// the probe the round-based solvers call between rounds (and the registry
// adapters call before one-shot solves) to honor deadlines mid-computation.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Ctx carries the execution configuration for the primitives: the number of
// workers to fan out across and the Tally charged by each primitive. The
// zero value and nil are both usable: they select GOMAXPROCS workers and no
// accounting.
type Ctx struct {
	// Workers is the maximum goroutine fan-out. Zero means GOMAXPROCS.
	Workers int
	// Tally, if non-nil, accumulates analytic work/span for every primitive.
	Tally *Tally
	// Grain is the smallest index range worth forking for. Zero means a
	// default tuned for loop bodies of a few nanoseconds.
	Grain int
	// Trace, if non-nil, receives round-level TraceEvents from the
	// round-based algorithms (see trace.go). Nil costs nothing: emit sites
	// guard on Tracing(), so an untraced solve performs zero extra
	// allocations per round.
	Trace Tracer
}

// DefaultGrain is the sequential cutoff used when Ctx.Grain is zero.
const DefaultGrain = 2048

func (c *Ctx) workers() int {
	if c == nil || c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c *Ctx) grain() int {
	if c == nil || c.Grain <= 0 {
		return DefaultGrain
	}
	return c.Grain
}

func (c *Ctx) tally() *Tally {
	if c == nil {
		return nil
	}
	return c.Tally
}

// charge records a primitive of the given work and span on the context tally.
func (c *Ctx) charge(work, span int64) {
	c.tally().Add(work, span)
}

// Charge lets algorithm code add model cost not captured by a primitive
// (for example the inner loop of a fused kernel). Nil-safe.
func (c *Ctx) Charge(work, span int64) {
	c.tally().Add(work, span)
}

// Do runs the given closures concurrently and waits for all of them — the
// fork-join "parallel composition" primitive. Do itself charges nothing:
// costs belong to the primitives invoked inside the branches.
func (c *Ctx) Do(fns ...func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for _, fn := range fns[1:] {
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	fns[0]()
	wg.Wait()
}

// For executes body(i) for every i in [0, n) in parallel. It charges n work
// and logarithmic span (the fork tree), matching an EREW PRAM parallel loop
// with constant-time bodies; bodies that are themselves super-constant should
// charge their own cost via the Tally. The element body is handed to the
// worker pool directly (no wrapping closure), so a For over a pre-bound
// body performs zero allocations.
func (c *Ctx) For(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	c.charge(int64(n), logSpan(n))
	g := c.grain()
	p := c.workers()
	if p == 1 || n <= g {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	blocks := (n + g - 1) / g
	if blocks > p {
		blocks = p
	}
	shared.run(n, blocks, nil, body)
}

// ForBlock partitions [0, n) into contiguous blocks, one per worker (subject
// to the grain), and executes body(lo, hi) on each block in parallel. This is
// the workhorse the other primitives are built on.
func (c *Ctx) ForBlock(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	c.charge(int64(n), logSpan(n))
	c.forBlocks(n, c.grain(), body)
}

// ForRows partitions [0, n) rows where each row's body costs rowCost basic
// operations, and executes body(lo, hi) on contiguous row blocks in parallel.
// The sequential cutoff adapts so every block carries at least Grain
// operations of total work, which is what makes row-blocked matrix kernels
// (distance materialization, Floyd–Warshall steps) fork sensibly even when
// the row count alone is below the grain. It charges n·rowCost work and
// rowCost + log n span — a parallel loop whose bodies are sequential
// rowCost-length scans.
func (c *Ctx) ForRows(n, rowCost int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if rowCost < 1 {
		rowCost = 1
	}
	c.charge(int64(n)*int64(rowCost), int64(rowCost)+logSpan(n))
	c.forBlocks(n, c.rowGrain(rowCost), body)
}

// PerRow returns a copy of c for loops over rows whose bodies each cost
// about rowCost basic operations: its Grain is the row count at which
// ForRows forks such rows. For and ForBlock on the copy then spread rows
// across workers even when there are fewer rows than the grain, and they
// charge what they always charge, so callers keep their own cost
// accounting. The copy is a value: build it once per solve and loop on its
// address, and the loops stay allocation-free. A nil c yields the defaults.
func (c *Ctx) PerRow(rowCost int) Ctx {
	var d Ctx
	if c != nil {
		d = *c
	}
	d.Grain = c.rowGrain(max(rowCost, 1))
	return d
}

// rowGrain is the sequential cutoff, in rows, for rows of rowCost ≥ 1
// operations: every block then carries at least Grain operations.
func (c *Ctx) rowGrain(rowCost int) int {
	return (c.grain() + rowCost - 1) / rowCost
}

// forBlocks runs body over [0, n) split into contiguous blocks of at least g
// indices, at most one per worker, on the persistent pool. Charges nothing:
// callers account cost.
func (c *Ctx) forBlocks(n, g int, body func(lo, hi int)) {
	p := c.workers()
	if p == 1 || n <= g {
		body(0, n)
		return
	}
	blocks := (n + g - 1) / g
	if blocks > p {
		blocks = p
	}
	shared.run(n, blocks, body, nil)
}

// Reduce combines xs under an associative operator with identity id, in
// parallel. Work Θ(n), span Θ(log n).
func Reduce[T any](c *Ctx, xs []T, id T, op func(a, b T) T) T {
	n := len(xs)
	if n == 0 {
		return id
	}
	p := c.workers()
	g := c.grain()
	c.charge(int64(n), logSpan(n))
	if p == 1 || n <= g {
		acc := id
		for _, x := range xs {
			acc = op(acc, x)
		}
		return acc
	}
	blocks := (n + g - 1) / g
	if blocks > p {
		blocks = p
	}
	partial := make([]T, blocks)
	shared.run(blocks, blocks, nil, func(b int) {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		acc := id
		for i := lo; i < hi; i++ {
			acc = op(acc, xs[i])
		}
		partial[b] = acc
	})
	acc := id
	for _, x := range partial {
		acc = op(acc, x)
	}
	return acc
}

// ReduceIndex reduces over indices [0, n) with at: a keyless variant that
// avoids materializing a slice. Work Θ(n), span Θ(log n).
func ReduceIndex[T any](c *Ctx, n int, id T, at func(i int) T, op func(a, b T) T) T {
	if n == 0 {
		return id
	}
	p := c.workers()
	g := c.grain()
	c.charge(int64(n), logSpan(n))
	if p == 1 || n <= g {
		acc := id
		for i := 0; i < n; i++ {
			acc = op(acc, at(i))
		}
		return acc
	}
	blocks := (n + g - 1) / g
	if blocks > p {
		blocks = p
	}
	partial := make([]T, blocks)
	shared.run(blocks, blocks, nil, func(b int) {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		acc := id
		for i := lo; i < hi; i++ {
			acc = op(acc, at(i))
		}
		partial[b] = acc
	})
	acc := id
	for _, x := range partial {
		acc = op(acc, x)
	}
	return acc
}

// sumBlock is the fixed leaf size of the SumFloat summation tree. It is a
// constant — not derived from Workers or Grain — which is what makes the sum
// bitwise reproducible across worker counts.
const sumBlock = 2048

// SumFloat returns the sum of xs. Unlike the generic Reduce, the summation
// tree is fixed (contiguous sumBlock-element leaves combined left to right),
// so the result is bitwise identical regardless of worker count or grain —
// the property the conformance suite's determinism leg relies on once
// instances grow past the sequential cutoff.
func SumFloat(c *Ctx, xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	c.charge(int64(n), logSpan(n))
	blocks := (n + sumBlock - 1) / sumBlock
	if blocks == 1 || c.workers() == 1 {
		return sumBlocksSeq(xs, blocks, n)
	}
	sp := getFloatScratch(blocks)
	partial := *sp
	c.forBlocks(blocks, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			end := (b + 1) * sumBlock
			if end > n {
				end = n
			}
			acc := 0.0
			for _, x := range xs[b*sumBlock : end] {
				acc += x
			}
			partial[b] = acc
		}
	})
	acc := 0.0
	for _, p := range partial {
		acc += p
	}
	putFloatScratch(sp)
	return acc
}

// sumBlocksSeq sums xs with the same fixed block tree as the parallel path.
func sumBlocksSeq(xs []float64, blocks, n int) float64 {
	total := 0.0
	for b := 0; b < blocks; b++ {
		end := (b + 1) * sumBlock
		if end > n {
			end = n
		}
		acc := 0.0
		for _, x := range xs[b*sumBlock : end] {
			acc += x
		}
		total += acc
	}
	return total
}

// MinFloat returns the minimum of xs, or +Inf-like identity if empty.
func MinFloat(c *Ctx, xs []float64) float64 {
	return Reduce(c, xs, inf, fmin)
}

// MaxFloat returns the maximum of xs, or -Inf-like identity if empty.
func MaxFloat(c *Ctx, xs []float64) float64 {
	return Reduce(c, xs, -inf, fmax)
}

var inf = math.Inf(1)

func fmin(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}

func fmax(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

// IndexedMin is a value-index pair for arg-min reductions.
type IndexedMin struct {
	Value float64
	Index int
}

// ArgMin returns the index of the minimum value of at(i) over [0, n), with
// ties broken toward the smaller index (so the reduction is associative and
// deterministic). Returns index -1 when n == 0.
func ArgMin(c *Ctx, n int, at func(i int) float64) IndexedMin {
	id := IndexedMin{Value: inf, Index: -1}
	return ReduceIndex(c, n, id,
		func(i int) IndexedMin { return IndexedMin{Value: at(i), Index: i} },
		func(a, b IndexedMin) IndexedMin {
			if b.Value < a.Value || (b.Value == a.Value && b.Index >= 0 && (a.Index < 0 || b.Index < a.Index)) {
				return b
			}
			return a
		})
}

// Count returns the number of indices in [0, n) satisfying pred.
func Count(c *Ctx, n int, pred func(i int) bool) int {
	return ReduceIndex(c, n, 0,
		func(i int) int {
			if pred(i) {
				return 1
			}
			return 0
		},
		func(a, b int) int { return a + b })
}

// Any reports whether pred holds for any index in [0, n).
func Any(c *Ctx, n int, pred func(i int) bool) bool {
	return Count(c, n, pred) > 0
}

// All reports whether pred holds for every index in [0, n).
func All(c *Ctx, n int, pred func(i int) bool) bool {
	return Count(c, n, pred) == n
}

// Map applies f to every element of xs into a new slice. Work Θ(n).
func Map[T, U any](c *Ctx, xs []T, f func(T) U) []U {
	out := make([]U, len(xs))
	c.For(len(xs), func(i int) { out[i] = f(xs[i]) })
	return out
}

// Fill sets every element of xs to v in parallel.
func Fill[T any](c *Ctx, xs []T, v T) {
	c.For(len(xs), func(i int) { xs[i] = v })
}

// Iota returns [0, 1, ..., n-1].
func Iota(c *Ctx, n int) []int {
	out := make([]int, n)
	c.For(n, func(i int) { out[i] = i })
	return out
}
