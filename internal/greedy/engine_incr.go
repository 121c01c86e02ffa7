package greedy

import "repro/internal/par"

// incrEngine is the round-incremental engine: the paper's "charge only the
// edges still alive" cost model made literal.
//
//   - Live-set compaction: each facility's presorted client order is
//     compacted in place once per outer round, so the Fact 4.2 star scans
//     walk exactly the liveCount-long live prefix instead of all nc entries.
//     Compaction preserves relative order, so every floating-point sum is
//     bitwise identical to the dense engine's skip-the-dead scan.
//   - CSR threshold graph: when a round admits the set I at threshold T, the
//     edges of H = {(i,j) : i ∈ I, j live, d(i,j) ≤ T} form, per facility, a
//     prefix of the compacted order (it is distance-sorted) — found by one
//     binary search per facility. The client→facility transpose is built
//     once per outer round; facilities enter each client's adjacency list in
//     ascending order, keeping every later argmin deterministic.
//   - Inner subselection iterations then run degree, voting, absorption, and
//     pruning sweeps in O(|E(H)|) — clients that die mid-round are skipped
//     via the live bits but cost only their H-edges, never a full rescan.
//
// All sweep bodies are pre-bound closures over the engine, so steady-state
// iterations perform zero heap allocations (see TestGreedyInnerStepsZeroAllocs).
type incrEngine struct {
	*state

	// rows schedules the per-facility sweeps by the cost of one client
	// row, so they fork even when nf is below the grain.
	rows par.Ctx

	liveLen []int32 // per-facility compacted prefix length (all-live prefix)
	prefLen int     // liveCount at last compaction: liveLen[i] == prefLen ∀i
	tlen    []int32 // per-facility H-prefix length within the live prefix
	edges   int64   // |E(H)| of the current round

	tOff []int32 // client CSR offsets, len nc+1
	tCur []int32 // scratch write cursors during transpose fill
	tAdj []int32 // client→facility adjacency, len edges (grown on demand)

	// Pre-bound parallel bodies (allocated once; see package comment).
	starsBody   func(lo, hi int)
	compactBody func(lo, hi int)
	tlenBody    func(i int)
	degBody     func(i int)
	voteBody    func(j int)
	pruneBody   func(i int)
}

func newIncrEngine(s *state) *incrEngine {
	e := &incrEngine{
		state:   s,
		rows:    s.c.PerRow(s.nc),
		liveLen: make([]int32, s.nf),
		prefLen: s.nc,
		tlen:    make([]int32, s.nf),
		tOff:    make([]int32, s.nc+1),
		tCur:    make([]int32, s.nc),
	}
	for i := range e.liveLen {
		e.liveLen[i] = int32(s.nc)
	}
	e.starsBody = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.prices[i], s.sizes[i] = starScan(s.in, s.fi, s.live, i, s.order.Row(i)[:e.liveLen[i]])
		}
	}
	e.compactBody = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := s.order.Row(i)[:e.liveLen[i]]
			w := 0
			for _, cj := range row {
				if s.live[cj] {
					row[w] = cj
					w++
				}
			}
			e.liveLen[i] = int32(w)
		}
	}
	e.tlenBody = func(i int) {
		if !s.inI[i] {
			e.tlen[i] = 0
			return
		}
		row := s.order.Row(i)[:e.liveLen[i]]
		drow := s.in.D.Row(i)
		// Binary search for the end of the d ≤ T prefix.
		lo, hi := 0, len(row)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if drow[row[mid]] <= s.T {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		e.tlen[i] = int32(lo)
	}
	e.degBody = func(i int) {
		s.deg[i] = 0
		if !s.inI[i] {
			return
		}
		row := s.order.Row(i)[:e.tlen[i]]
		d := 0.0
		for _, cj := range row {
			if s.live[cj] {
				d += s.in.W(int(cj))
			}
		}
		s.deg[i] = d
	}
	e.voteBody = func(j int) {
		s.phi[j] = -1
		if !s.live[j] {
			return
		}
		best := ^uint64(0)
		bi := int32(-1)
		for _, f := range e.tAdj[e.tOff[j]:e.tOff[j+1]] {
			if !s.inI[f] {
				continue
			}
			if p := s.perm[f]; p < best || (p == best && (bi < 0 || f < bi)) {
				best, bi = p, f
			}
		}
		s.phi[j] = bi
	}
	e.pruneBody = func(i int) {
		if !s.inI[i] {
			return
		}
		row := s.order.Row(i)[:e.tlen[i]]
		drow := s.in.D.Row(i)
		wd := 0.0
		sum := s.fi[i]
		for _, cj := range row {
			if s.live[cj] {
				w := s.in.W(int(cj))
				wd += w
				sum += w * drow[cj]
			}
		}
		if wd == 0 || sum/wd > s.T {
			s.inI[i] = false
		}
	}
	return e
}

func (e *incrEngine) computeStars() {
	e.rows.ForBlock(e.nf, e.starsBody)
	e.c.Charge(int64(e.nf)*int64(e.prefLen), 1)
}

// compactLive drops dead clients from every order row. The prefixes stay
// distance-sorted (stable filter), so subsequent scans remain bitwise
// equivalent to skipping the dead in the full rows.
func (e *incrEngine) compactLive() {
	if e.liveCount == e.prefLen {
		return
	}
	e.rows.ForBlock(e.nf, e.compactBody)
	e.c.Charge(int64(e.nf)*int64(e.prefLen), 1)
	e.prefLen = e.liveCount
}

// beginRound materializes the CSR of H: per-facility prefix lengths (one
// binary search each) plus the client→facility transpose, built by a
// counting pass and an ascending-facility fill so adjacency order is
// deterministic. Total cost O(nf log nc + nc + |E(H)|) per outer round,
// amortized across all the round's subselection iterations.
func (e *incrEngine) beginRound() {
	s := e.state
	e.rows.For(s.nf, e.tlenBody)
	for j := 0; j <= s.nc; j++ {
		e.tOff[j] = 0
	}
	edges := int64(0)
	for i := 0; i < s.nf; i++ {
		if !s.inI[i] {
			continue
		}
		row := s.order.Row(i)[:e.tlen[i]]
		for _, cj := range row {
			e.tOff[cj+1]++
		}
		edges += int64(len(row))
	}
	e.edges = edges
	for j := 0; j < s.nc; j++ {
		e.tOff[j+1] += e.tOff[j]
		e.tCur[j] = e.tOff[j]
	}
	if int64(cap(e.tAdj)) < edges {
		e.tAdj = make([]int32, edges)
	}
	e.tAdj = e.tAdj[:edges]
	for i := 0; i < s.nf; i++ {
		if !s.inI[i] {
			continue
		}
		row := s.order.Row(i)[:e.tlen[i]]
		for _, cj := range row {
			e.tAdj[e.tCur[cj]] = int32(i)
			e.tCur[cj]++
		}
	}
	// Work: the histogram + scatter passes; span: the standard parallel
	// build (prefix sums over counts) is logarithmic.
	s.c.Charge(2*edges+int64(s.nc), logSpan32(s.nc)+logSpan32(s.nf))
}

func (e *incrEngine) degrees() {
	e.rows.For(e.nf, e.degBody)
	e.c.Charge(e.edges, 1)
}

func (e *incrEngine) vote() {
	e.c.For(e.nc, e.voteBody)
	e.c.Charge(e.edges, 1)
}

func (e *incrEngine) prune() {
	e.rows.For(e.nf, e.pruneBody)
	e.c.Charge(e.edges, 1)
}

func (e *incrEngine) absorb(i int) {
	s := e.state
	row := s.order.Row(i)[:e.tlen[i]]
	for _, cj := range row {
		if s.live[cj] {
			s.removeClient(int(cj), s.tau)
		}
	}
	s.c.Charge(int64(len(row)), 1)
}

func (e *incrEngine) star(i int) (float64, int) {
	s := e.state
	s.c.Charge(int64(e.liveLen[i]), 1)
	return starScan(s.in, s.fi, s.live, i, s.order.Row(i)[:e.liveLen[i]])
}

// logSpan32 mirrors par's logarithmic span accounting for engine charges.
func logSpan32(n int) int64 {
	s := int64(1)
	for n > 1 {
		s++
		n >>= 1
	}
	return s
}
