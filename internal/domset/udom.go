package domset

import "repro/internal/par"

// MaxUDom computes a maximal U-dominator set of the bipartite graph with nu
// U-side and nv V-side nodes and adjacency oracle adj(u, v): a maximal
// I ⊆ U such that no two members share a V-side neighbor (an MIS of H′,
// simulated in place per §3). liveU, if non-nil, restricts the U-side
// candidates. U-side candidates with no V-neighbors conflict with nothing
// and are always selected. Luby priorities come from the counter-based
// splitmix64 substreams of seed (see priorities), so the output is
// deterministic per seed and independent of worker count.
func MaxUDom(c *par.Ctx, nu, nv int, adj func(u, v int) bool, liveU []bool, seed uint64) ([]int, Stats) {
	cand := make([]bool, nu)
	if liveU == nil {
		for i := range cand {
			cand[i] = true
		}
	} else {
		copy(cand, liveU)
	}
	selected := make([]bool, nu)
	pri := make([]int64, nu)
	m1 := make([]int64, nv)
	m2 := make([]int64, nu)
	s1 := make([]bool, nv)
	var st Stats
	// The two U-side sweeps that scan a whole V row per candidate fork by
	// the cost of that row.
	rows := c.PerRow(nv)

	remaining := func() int { return par.Count(c, nu, func(u int) bool { return cand[u] }) }

	for remaining() > 0 {
		if st.Rounds >= roundCap(nu) {
			st.Fallbacks += greedyFinishUDom(nu, nv, adj, cand, selected)
			break
		}
		st.Rounds++
		priorities(c, par.Stream(seed, st.Rounds), pri)
		// First hop: m1[v] = min priority among live candidates adjacent to v.
		c.For(nv, func(v int) {
			best := infPri
			for u := 0; u < nu; u++ {
				if cand[u] && adj(u, v) && pri[u] < best {
					best = pri[u]
				}
			}
			m1[v] = best
		})
		// Second hop: m2[u] = min over v ∈ Γ(u) of m1[v] — the min priority
		// among all candidates sharing a V-neighbor with u (including u).
		rows.For(nu, func(u int) {
			best := infPri
			for v := 0; v < nv; v++ {
				if adj(u, v) && m1[v] < best {
					best = m1[v]
				}
			}
			m2[u] = best
		})
		c.Charge(int64(2*nu*nv), 2)
		// Select: local minimum, or degree-0 (m2 stays at infinity, which is
		// only possible with no V-neighbors since u itself feeds its m1's).
		c.For(nu, func(u int) {
			if cand[u] && (m2[u] == pri[u] || m2[u] == infPri) {
				selected[u] = true
			}
		})
		// Deactivate every candidate sharing a V-neighbor with a selected
		// node, and the selected nodes themselves.
		c.For(nv, func(v int) {
			s1[v] = false
			for u := 0; u < nu; u++ {
				if selected[u] && adj(u, v) {
					s1[v] = true
					break
				}
			}
		})
		c.Charge(int64(2*nu*nv), 2)
		rows.For(nu, func(u int) {
			if !cand[u] {
				return
			}
			if selected[u] {
				cand[u] = false
				return
			}
			for v := 0; v < nv; v++ {
				if adj(u, v) && s1[v] {
					cand[u] = false
					return
				}
			}
		})
	}
	return par.PackIndex(c, nu, func(u int) bool { return selected[u] }), st
}

// greedyFinishUDom deterministically completes a partial U-dominator set.
func greedyFinishUDom(nu, nv int, adj func(u, v int) bool, cand, selected []bool) int {
	count := 0
	for u := 0; u < nu; u++ {
		if !cand[u] {
			continue
		}
		if !conflictsUDom(nu, nv, adj, selected, u) {
			selected[u] = true
			count++
		}
		cand[u] = false
	}
	return count
}

// conflictsUDom reports whether u shares a V-neighbor with a selected node.
func conflictsUDom(nu, nv int, adj func(u, v int) bool, selected []bool, u int) bool {
	for v := 0; v < nv; v++ {
		if !adj(u, v) {
			continue
		}
		for w := 0; w < nu; w++ {
			if w != u && selected[w] && adj(w, v) {
				return true
			}
		}
	}
	return false
}

// GreedyMaxUDom is the sequential reference: scan U in index order.
func GreedyMaxUDom(nu, nv int, adj func(u, v int) bool, liveU []bool) []int {
	selected := make([]bool, nu)
	var out []int
	for u := 0; u < nu; u++ {
		if liveU != nil && !liveU[u] {
			continue
		}
		if !conflictsUDom(nu, nv, adj, selected, u) {
			selected[u] = true
			out = append(out, u)
		}
	}
	return out
}

// CheckUDominator verifies validity and maximality of sel over the candidate
// mask. Returns "" when valid, else a description.
func CheckUDominator(nu, nv int, adj func(u, v int) bool, liveU []bool, sel []int) string {
	selected := make([]bool, nu)
	for _, u := range sel {
		if u < 0 || u >= nu {
			return "selected node out of range"
		}
		if liveU != nil && !liveU[u] {
			return "selected node is not a candidate"
		}
		if selected[u] {
			return "node selected twice"
		}
		selected[u] = true
	}
	for _, u := range sel {
		if conflictsUDom(nu, nv, adj, selected, u) {
			return "two selected nodes share a V-neighbor"
		}
	}
	for u := 0; u < nu; u++ {
		if selected[u] || (liveU != nil && !liveU[u]) {
			continue
		}
		if !conflictsUDom(nu, nv, adj, selected, u) {
			return "not maximal: an unselected candidate has no conflict"
		}
	}
	return ""
}
