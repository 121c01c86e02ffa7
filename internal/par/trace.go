package par

// TraceEvent is one span of a round-structured computation: an outer round
// of the greedy algorithm, a dual-raising iteration of primal-dual, a
// coreset build phase, a distributed-exchange barrier, or a simplex phase
// of the LP solve behind lp-round. Events are plain
// values — emitting one allocates nothing — and every field beyond Phase is
// optional, zero when the emitting site has nothing meaningful to report.
type TraceEvent struct {
	// Solver names the emitting algorithm family ("greedy", "primal-dual",
	// "coreset", "exchange", "lp") — not the registry entry, which the layer
	// that installed the Tracer already knows.
	Solver string
	// Phase is the span kind: "round" for the per-round spans every
	// round-based solver emits, "barrier" for distributed-exchange
	// barriers, build-phase names ("cover", "seed", "sample") for the
	// coreset pipeline, and "phase1"/"phase2" for the two simplex phases.
	Phase string
	// Round is the round/iteration/barrier ordinal within the solve.
	Round int
	// Work and Span are the incremental PRAM cost charged during this span
	// (Tally deltas), zero when the Ctx carries no Tally. The LP solver
	// charges no Tally; its "phase1"/"phase2" events carry the phase's
	// simplex pivot count in Work instead.
	Work, Span int64
	// Live counts the elements still active after the span: live clients
	// (greedy), unfrozen clients (primal-dual), points covered (coreset).
	Live int64
	// Opened counts facilities opened (or elements selected) so far.
	Opened int
	// Bytes is the frame payload size for exchange barriers.
	Bytes int
}

// Tracer receives TraceEvents. Implementations must be safe for concurrent
// use: batch engines share one Options value — and therefore one Tracer —
// across worker goroutines.
type Tracer interface {
	Emit(ev TraceEvent)
}

// Tracing reports whether this Ctx carries a Tracer. Emit sites guard on it
// before assembling an event (and before snapshotting the Tally for work
// deltas), so a nil tracer costs one predictable branch per round and zero
// allocations — pinned by TestEmitNilTracerAllocs.
func (c *Ctx) Tracing() bool {
	return c != nil && c.Trace != nil
}

// Emit forwards ev to the Ctx's Tracer; nil-safe no-op without one.
func (c *Ctx) Emit(ev TraceEvent) {
	if c == nil || c.Trace == nil {
		return
	}
	c.Trace.Emit(ev)
}
