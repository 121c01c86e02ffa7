package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	facloc "repro"
	"repro/internal/cluster"
	"repro/internal/durable"
)

// solveKey is the solution-cache identity: the content address of the
// instance plus everything a solution can depend on. Options arrive
// canonicalized (facloc.Options.Canonical), so spelling differences that
// cannot change the solution — worker count, tally tracking, an unset ε —
// collapse onto one key.
func solveKey(instanceHash, solver string, opts facloc.Options) string {
	opts = opts.Canonical()
	return fmt.Sprintf("%s|%s|eps=%016x|seed=%d",
		instanceHash, solver, math.Float64bits(opts.Epsilon), opts.Seed)
}

// solutionID is the public, deterministic name of a cache entry: the first
// 16 bytes of the SHA-256 of its key, hex. Clients that know the instance
// hash and the solve parameters can recompute it offline.
func solutionID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16])
}

// entry is one cached solution: the stored Report, its pre-rendered JSON
// (returned verbatim on every hit, so responses are byte-identical), and
// the precomputed query structures.
type entry struct {
	id         string
	key        string
	instHash   string
	report     *facloc.Report
	reportJSON []byte
	handle     *Handle
	seed       int64
}

// ringFIFO is a fixed-capacity FIFO of strings over one backing array with
// a head index and wraparound. Unlike the slice[1:] pop it replaces, the
// backing array never grows and popped slots are cleared, so neither the
// array nor evicted string headers are retained for the daemon's uptime.
type ringFIFO struct {
	buf  []string
	head int
	n    int
}

func newRingFIFO(capacity int) *ringFIFO {
	return &ringFIFO{buf: make([]string, capacity)}
}

func (r *ringFIFO) len() int   { return r.n }
func (r *ringFIFO) full() bool { return r.n == len(r.buf) }

// push appends s; the caller evicts first when full.
func (r *ringFIFO) push(s string) {
	if r.full() {
		panic("serve: ringFIFO overflow")
	}
	r.buf[(r.head+r.n)%len(r.buf)] = s
	r.n++
}

// pop removes and returns the oldest element, clearing its slot so the
// string header is released immediately.
func (r *ringFIFO) pop() (string, bool) {
	if r.n == 0 {
		return "", false
	}
	s := r.buf[r.head]
	r.buf[r.head] = ""
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return s, true
}

// removeFunc drops every element for which drop returns true, preserving
// FIFO order. O(n) compaction in place — the rare path behind dependent-
// solution eviction.
func (r *ringFIFO) removeFunc(drop func(string) bool) {
	kept := 0
	for i := 0; i < r.n; i++ {
		s := r.buf[(r.head+i)%len(r.buf)]
		if drop(s) {
			continue
		}
		r.buf[(r.head+kept)%len(r.buf)] = s
		kept++
	}
	for i := kept; i < r.n; i++ {
		r.buf[(r.head+i)%len(r.buf)] = ""
	}
	r.n = kept
}

// store is the shared state of a Server: the content-addressed instance
// store and the solution cache. Both are bounded FIFO — past the cap the
// oldest entry is evicted — which keeps a long-running daemon's memory
// proportional to the caps rather than to its uptime. With a durable store
// attached, every put writes through to disk and every eviction deletes
// there too, so the on-disk state always mirrors the in-memory maps and a
// restart comes back warm.
type store struct {
	mu           sync.RWMutex
	instances    map[string]*facloc.Instance
	instanceFIFO *ringFIFO
	solutions    map[string]*entry
	solutionFIFO *ringFIFO
	// solsByInst indexes cached solutions by their instance hash, so
	// evicting an instance can drop (rather than strand) the entries whose
	// query path depends on it.
	solsByInst map[string][]string
	dur        *durable.Store // nil on memory-only daemons
	met        *metrics
	// node is the cluster node that holds this shard's replicated solution
	// bytes (nil until clustering is enabled). Every evicted solution is
	// dropped there too. Lock order: st.mu, then the node's own lock.
	node *cluster.Node
}

func newStore(maxInstances, maxSolutions int, dur *durable.Store, met *metrics) *store {
	return &store{
		instances:    make(map[string]*facloc.Instance),
		instanceFIFO: newRingFIFO(maxInstances),
		solutions:    make(map[string]*entry),
		solutionFIFO: newRingFIFO(maxSolutions),
		solsByInst:   make(map[string][]string),
		dur:          dur,
		met:          met,
	}
}

// putInstance stores in under its content address and returns (hash,
// created): created is false when the address was already present — the
// content-addressed no-op resubmission. With durability enabled the
// instance is persisted before the put is acknowledged; a failed persist
// fails the put loudly rather than acknowledging state a restart would
// lose.
func (st *store) putInstance(in *facloc.Instance) (string, bool, error) {
	h, err := facloc.InstanceHash(in)
	if err != nil {
		return "", false, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.instances[h]; ok {
		return h, false, nil
	}
	if st.dur != nil {
		var buf bytes.Buffer
		if err := facloc.WriteInstance(&buf, in); err != nil {
			return "", false, err
		}
		created, err := st.dur.Put(durable.KindInstances, h, buf.Bytes())
		if err != nil {
			st.met.storeWriteErrors.Add(1)
			return "", false, fmt.Errorf("serve: persisting instance: %w", err)
		}
		if created {
			st.met.storeWrites.Add(1)
		}
	}
	if st.instanceFIFO.full() {
		if evict, ok := st.instanceFIFO.pop(); ok {
			st.dropInstanceLocked(evict)
		}
	}
	st.instances[h] = in
	st.instanceFIFO.push(h)
	return h, true, nil
}

// dropInstanceLocked evicts one instance and every cached solution that
// depends on it. A stranded solution would still replay its report, but its
// query path dies with the instance on any shard that receives it by
// replication — dropping the dependents keeps the cache consistent: an id
// either answers everywhere or nowhere.
func (st *store) dropInstanceLocked(hash string) {
	delete(st.instances, hash)
	if st.dur != nil {
		_ = st.dur.Delete(durable.KindInstances, hash)
	}
	deps := st.solsByInst[hash]
	if len(deps) == 0 {
		return
	}
	delete(st.solsByInst, hash)
	dropped := make(map[string]bool, len(deps))
	for _, id := range deps {
		if _, ok := st.solutions[id]; ok {
			st.deleteSolutionLocked(id)
			dropped[id] = true
			if st.dur != nil {
				_ = st.dur.Delete(durable.KindSolutions, id)
			}
		}
	}
	st.solutionFIFO.removeFunc(func(id string) bool { return dropped[id] })
}

func (st *store) instance(hash string) (*facloc.Instance, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	in, ok := st.instances[hash]
	return in, ok
}

// instanceHashes snapshots the stored instance addresses (re-replication).
func (st *store) instanceHashes() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, 0, len(st.instances))
	for h := range st.instances {
		out = append(out, h)
	}
	return out
}

func (st *store) numInstances() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.instances)
}

func (st *store) solution(id string) (*entry, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, ok := st.solutions[id]
	return e, ok
}

// entrySnapshot snapshots the cached solution entries (re-replication).
func (st *store) entrySnapshot() []*entry {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]*entry, 0, len(st.solutions))
	for _, e := range st.solutions {
		out = append(out, e)
	}
	return out
}

// putSolution inserts e unless its id is already present (two identical
// in-flight solves race benignly: determinism makes their results bitwise
// equal, and first-write-wins keeps hit responses byte-stable). With
// durability enabled the entry is persisted before the put returns — a
// replica therefore persists before its ack frame goes out. A failed
// solution persist is counted and logged but does not fail the put: the
// in-memory entry stays correct, only the restart warmth is lost.
func (st *store) putSolution(e *entry) *entry {
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.solutions[e.id]; ok {
		return prev
	}
	if st.dur != nil {
		if payload, err := encodeEntry(e); err == nil {
			created, perr := st.dur.Put(durable.KindSolutions, e.id, payload)
			if perr != nil {
				st.met.storeWriteErrors.Add(1)
			} else if created {
				st.met.storeWrites.Add(1)
			}
		} else {
			st.met.storeWriteErrors.Add(1)
		}
	}
	if st.solutionFIFO.full() {
		if evict, ok := st.solutionFIFO.pop(); ok {
			st.dropSolutionLocked(evict)
		}
	}
	st.solutions[e.id] = e
	st.solutionFIFO.push(e.id)
	st.solsByInst[e.instHash] = append(st.solsByInst[e.instHash], e.id)
	return e
}

// dropSolutionLocked evicts one solution entry (FIFO overflow path; the
// caller has already removed its id from the FIFO).
func (st *store) dropSolutionLocked(id string) {
	e, ok := st.solutions[id]
	if !ok {
		return
	}
	st.deleteSolutionLocked(id)
	if st.dur != nil {
		_ = st.dur.Delete(durable.KindSolutions, id)
	}
	deps := st.solsByInst[e.instHash]
	for i, d := range deps {
		if d == id {
			deps[i] = deps[len(deps)-1]
			deps = deps[:len(deps)-1]
			break
		}
	}
	if len(deps) == 0 {
		delete(st.solsByInst, e.instHash)
	} else {
		st.solsByInst[e.instHash] = deps
	}
}

// deleteSolutionLocked removes id from the cache map and from the cluster
// node's replica store, so the node's store stays within the cache's bound
// and a later re-replication of id installs it again.
func (st *store) deleteSolutionLocked(id string) {
	delete(st.solutions, id)
	if st.node != nil {
		st.node.Forget(id)
	}
}

func (st *store) numSolutions() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.solutions)
}

// loadInstance seeds one recovered instance without write-back (its file
// is already on disk). Recovery feeds these oldest-first, so the rebuilt
// FIFO evicts in the same order the previous process would have.
func (st *store) loadInstance(hash string, in *facloc.Instance) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.instances[hash]; ok {
		return
	}
	if st.instanceFIFO.full() {
		if evict, ok := st.instanceFIFO.pop(); ok {
			st.dropInstanceLocked(evict)
		}
	}
	st.instances[hash] = in
	st.instanceFIFO.push(hash)
}

// loadSolution seeds one recovered solution entry without write-back.
func (st *store) loadSolution(e *entry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.solutions[e.id]; ok {
		return
	}
	if st.solutionFIFO.full() {
		if evict, ok := st.solutionFIFO.pop(); ok {
			st.dropSolutionLocked(evict)
		}
	}
	st.solutions[e.id] = e
	st.solutionFIFO.push(e.id)
	st.solsByInst[e.instHash] = append(st.solsByInst[e.instHash], e.id)
}
