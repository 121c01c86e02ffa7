package primaldual

import (
	"math"
	"sync/atomic"
)

// pdDense is the full-rescan reference engine: the payment sweep walks every
// facility's entire presorted row and the freeze sweep tests every
// (client, facility) pair — Θ(nf·nc) per dual level regardless of how few
// edges carry positive slack.
type pdDense struct {
	*pdState
}

func (e *pdDense) payments() {
	s := e.pdState
	s.c.For(s.nf, func(i int) {
		if s.opened[i] || s.isFree[i] {
			return
		}
		row := s.order.Row(i)
		drow := s.in.D.Row(i)
		paid := 0.0
		for _, cj := range row {
			if b := s.onePlus*s.alpha[cj] - drow[cj]; b > 0 {
				paid += s.in.W(int(cj)) * b
			}
		}
		if paid >= s.in.FacCost[i] {
			s.justOpened[i] = true
		}
	})
	s.c.Charge(int64(s.nf)*int64(s.nc), 1)
}

func (e *pdDense) freezes() {
	s := e.pdState
	s.c.For(s.nc, func(j int) {
		if s.frozen[j] {
			return
		}
		for i := 0; i < s.nf; i++ {
			if (s.opened[i] || s.isFree[i]) && s.onePlus*s.alpha[j] >= s.in.Dist(i, j) {
				s.frozen[j] = true
				return
			}
		}
	})
	s.c.Charge(int64(s.nf)*int64(s.nc), 1)
	n := 0
	for j := 0; j < s.nc; j++ {
		if !s.frozen[j] {
			n++
		}
	}
	s.unfrozen = n
}

// pdIncr is the live-edge engine. A facility's payment at level tl comes
// only from clients with positive slack, (1+ε)α_j > d — and since every α
// is at most tl during the main loop, all such clients sit in the presorted
// prefix with d < (1+ε)·tl, found by one binary search. The freeze sweep
// keeps one monotone pointer per open facility into its presorted order:
// as the threshold grows, each pointer advances over newly reachable
// clients exactly once, so the total freeze cost across the whole run is
// O(|E|) instead of O(nf·nc) per level. Payments sum the same positive
// terms in the same presorted order as the dense engine, so both engines
// are bitwise-identical.
type pdIncr struct {
	*pdState
	touched atomic.Int64 // edges scanned by the current payment sweep
	payBody func(i int)
}

func newPDIncr(s *pdState) *pdIncr {
	e := &pdIncr{pdState: s}
	e.payBody = func(i int) {
		if s.opened[i] || s.isFree[i] {
			return
		}
		row := s.order.Row(i)
		drow := s.in.D.Row(i)
		// Binary search for the end of the d < thr prefix — beyond it no
		// client can have positive slack at this level.
		lo, hi := 0, len(row)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if drow[row[mid]] < s.thr {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		paid := 0.0
		for _, cj := range row[:lo] {
			if b := s.onePlus*s.alpha[cj] - drow[cj]; b > 0 {
				paid += s.in.W(int(cj)) * b
			}
		}
		if paid >= s.in.FacCost[i] {
			s.justOpened[i] = true
		}
		e.touched.Add(int64(lo))
	}
	return e
}

func (e *pdIncr) payments() {
	s := e.pdState
	e.touched.Store(0)
	s.rows.For(s.nf, e.payBody)
	s.c.Charge(e.touched.Load()+int64(s.nf)*int64(math.Ilogb(float64(s.nc)+2)+1), 1)
}

func (e *pdIncr) freezes() {
	s := e.pdState
	advanced := int64(0)
	for _, fi := range s.openList {
		i := int(fi)
		row := s.order.Row(i)
		drow := s.in.D.Row(i)
		p := s.openPtr[i]
		for int(p) < s.nc && drow[row[p]] <= s.thr {
			if j := row[p]; !s.frozen[j] {
				s.frozen[j] = true
				s.unfrozen--
			}
			p++
		}
		advanced += int64(p - s.openPtr[i])
		s.openPtr[i] = p
	}
	// Work: pointer advancement plus one probe per open facility; span: the
	// standard parallel formulation (per-facility advance + OR-reduction
	// over freeze bits) is logarithmic.
	s.c.Charge(advanced+int64(len(s.openList)), 1)
}
