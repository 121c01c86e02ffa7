package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	facloc "repro"
	"repro/internal/serve"
)

// The serve-open workload: one serve.Server, an open-loop mix at a constant
// rate from at most maxWorkers goroutines over as many connections.
const (
	soNF, soNC = 24, 384
	// soRate is the request rate. Two connections sustain about ten times
	// this on two CPUs, but half of that would send more fresh instances
	// in a window than the store keeps (4096), and runs there vary more.
	soRate = 400.0
	// soPool is how many solved instances the hits and queries address.
	soPool    = 16
	bulkLines = 64
	// missChecks is how many misses are re-solved in process after the
	// window to check their reports.
	missChecks = 24
	// behindMS flags a run whose generator sent late at p99 by more than
	// this: its latencies then measure the generator, not the server.
	behindMS = 20
)

// Op kinds, in schedule mix order, and the latency class each belongs to.
const (
	kMiss = iota
	kHit
	kAssign
	kNearest
	kBulk
)

var (
	soMix        = []float64{0.10, 0.25, 0.275, 0.275, 0.10}
	soClassOf    = []int{0, 1, 2, 2, 3}
	soClassNames = []string{"miss", "hit", "query", "bulk"}
	soSolvers    = []string{"greedy-par", "pd-par"}
)

// pointInst is a point-form instance: the first soNF points are facilities.
type pointInst struct {
	in     *facloc.Instance
	coords []float64
	wire   []byte // its JSON encoding
}

func pointInstance(seed int64) (*pointInst, error) {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, 2*(soNF+soNC))
	for i := range coords {
		coords[i] = 100 * rng.Float64()
	}
	costs := make([]float64, soNF)
	for i := range costs {
		costs[i] = 20 + 80*rng.Float64()
	}
	in, err := facloc.FromCoords(2, coords, soNF, costs)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := facloc.WriteInstance(&buf, in); err != nil {
		return nil, err
	}
	return &pointInst{in: in, coords: coords, wire: buf.Bytes()}, nil
}

// missSolver picks a miss's solver: greedy-par for three misses in four,
// pd-par for the fourth. The two take different times, and an even split
// would put the class median in the gap between them.
func missSolver(arg int64) string {
	if arg%4 == 0 {
		return "pd-par"
	}
	return "greedy-par"
}

// missInstance is the fresh instance op k of a schedule sends inline.
func missInstance(seed int64, k int) (*pointInst, error) {
	return pointInstance(facloc.DeriveSeed(seed, k))
}

// solveReply and reportBody are the parts of a /solve response the checks
// read.
type solveReply struct {
	ID           string          `json:"id"`
	InstanceHash string          `json:"instance_hash"`
	Cached       bool            `json:"cached"`
	Degraded     bool            `json:"degraded"`
	Report       json.RawMessage `json:"report"`
}

type reportBody struct {
	Cost float64 `json:"cost"`
	Open []int   `json:"open"`
}

type queryAnswer struct {
	Facility int     `json:"facility"`
	Distance float64 `json:"distance"`
}

// poolEntry is one solved instance that hits and queries address.
type poolEntry struct {
	*pointInst
	solver string
	seed   int64
	id     string
	hash   string
	report []byte
}

type request struct {
	method, path string
	body         []byte
}

// serveOpen is one pass's server, pool, schedule and results.
type serveOpen struct {
	o      *outcome
	seed   int64
	traced bool
	sh     *shard
	hlog   *handlerLog
	cc     *connCounter
	client *http.Client
	pool   []*poolEntry
	ops    []op
	reqs   []request
}

func runServeOpen(p pass) (*outcome, error) {
	s := &serveOpen{seed: p.seed, traced: p.traced, o: &outcome{layers: map[string]float64{}}}
	for r := 0; r < p.reps; r++ {
		start := setupClock()
		if s.sh != nil {
			s.sh.stop()
		}
		if err := s.setup(p.seconds); err != nil {
			return nil, err
		}
		s.o.setupS = append(s.o.setupS, time.Since(start).Seconds())
		s.o.setupRef = append(s.o.setupRef, refLoopMS())
	}
	defer s.sh.stop()
	raw := s.sh.srv.Handler()
	var before []map[string]float64
	stopSampler := make(chan struct{})
	depths := make(chan float64, 1)
	if s.traced {
		m, err := scrape(raw)
		if err != nil {
			return nil, err
		}
		before = []map[string]float64{m}
		go sampleQueueDepth(raw, stopSampler, depths)
	}

	resetPeakRSS()
	t0 := time.Now().Add(20 * time.Millisecond)
	res := openLoop(s.ops, maxWorkers, t0, func(k int, o op) reply { return s.do(s.reqs[k], k) })
	s.o.rssMB = peakRSSMB()
	close(stopSampler)
	maxDepth := 0.0
	if s.traced {
		maxDepth = <-depths
	}
	s.collect(res)
	if err := s.check(res); err != nil {
		return nil, err
	}
	if s.traced {
		m, err := scrape(raw)
		if err != nil {
			return nil, err
		}
		s.layers(res, before, []map[string]float64{m}, maxDepth)
	}
	return s.o, nil
}

// setup starts a fresh server, solves the pool through it, lays out the
// schedule with every request body, and warms each request class up.
func (s *serveOpen) setup(seconds float64) error {
	sh, err := listen()
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{})
	if err != nil {
		sh.ln.Close()
		return err
	}
	var wrap func(http.Handler) http.Handler
	if s.traced {
		s.hlog = &handlerLog{}
		wrap = s.hlog.wrap
	}
	sh.start(srv, wrap)
	s.sh = sh
	s.cc = &connCounter{}
	s.client = newClient(maxWorkers, true, s.cc)

	s.pool = s.pool[:0]
	for i := 0; i < soPool; i++ {
		pi, err := pointInstance(facloc.DeriveSeed(s.seed, -1-i))
		if err != nil {
			return err
		}
		pe := &poolEntry{pointInst: pi, solver: soSolvers[i%2], seed: int64(i)}
		b, err := json.Marshal(serve.SolveRequest{Instance: pi.wire, Solver: pe.solver, Seed: pe.seed})
		if err != nil {
			return err
		}
		r := s.do(request{http.MethodPost, "/solve", b}, -1)
		var sr solveReply
		if !r.ok() || json.Unmarshal(r.body, &sr) != nil {
			return fmt.Errorf("serve-open: priming the pool: status %d %v %s", r.status, r.err, r.body)
		}
		pe.id, pe.hash, pe.report = sr.ID, sr.InstanceHash, sr.Report
		s.pool = append(s.pool, pe)
	}

	s.ops = schedule(s.seed, soRate, seconds, soMix)
	s.reqs = make([]request, len(s.ops))
	for k, o := range s.ops {
		if s.reqs[k], err = s.request(k, o); err != nil {
			return err
		}
	}

	// Warm-up: one request of each kind; the miss uses an instance no
	// scheduled op sends.
	warm := []op{{kind: kHit, arg: 1}, {kind: kAssign, arg: 2}, {kind: kNearest, arg: 3}, {kind: kBulk, arg: 4}, {kind: kMiss, arg: 5}}
	for _, o := range warm {
		rq, err := s.request(-100, o)
		if err != nil {
			return err
		}
		if r := s.do(rq, -1); !r.ok() {
			return fmt.Errorf("serve-open warm-up: status %d %v %s", r.status, r.err, r.body)
		}
	}
	return nil
}

// do sends one request; a traced pass tags a scheduled op (k ≥ 0) with its
// id for the handler wrapper.
func (s *serveOpen) do(rq request, k int) reply {
	req, err := http.NewRequest(rq.method, s.sh.url+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return reply{err: err}
	}
	if s.traced && k >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(k))
	}
	return send(s.client, req)
}

// request builds op k's HTTP request from its seeded parameter.
func (s *serveOpen) request(k int, o op) (request, error) {
	pe := s.pool[o.arg%soPool]
	rng := rand.New(rand.NewSource(o.arg))
	point := func() string {
		return strconv.FormatFloat(100*rng.Float64(), 'g', -1, 64) + "," + strconv.FormatFloat(100*rng.Float64(), 'g', -1, 64)
	}
	switch o.kind {
	case kMiss:
		pi, err := missInstance(s.seed, k)
		if err != nil {
			return request{}, err
		}
		b, err := json.Marshal(serve.SolveRequest{Instance: pi.wire, Solver: missSolver(o.arg), Seed: o.arg % 1000})
		return request{http.MethodPost, "/solve", b}, err
	case kHit:
		b, err := json.Marshal(serve.SolveRequest{Hash: pe.hash, Solver: pe.solver, Seed: pe.seed})
		return request{http.MethodPost, "/solve", b}, err
	case kAssign:
		return request{http.MethodGet, "/solutions/" + pe.id + "/assign?client=" + strconv.Itoa(rng.Intn(soNC)), nil}, nil
	case kNearest:
		return request{http.MethodGet, "/solutions/" + pe.id + "/nearest?x=" + point(), nil}, nil
	}
	var buf bytes.Buffer
	for i := 0; i < bulkLines; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&buf, "{\"client\":%d}\n", rng.Intn(soNC))
		} else {
			fmt.Fprintf(&buf, "{\"x\":[%s]}\n", point())
		}
	}
	return request{http.MethodPost, "/solutions/" + pe.id + "/query", buf.Bytes()}, nil
}

// sampleQueueDepth scrapes faclocd_queue_depth once a second until stop
// closes, then sends the largest value seen on out (buffered, one slot).
func sampleQueueDepth(h http.Handler, stop <-chan struct{}, out chan<- float64) {
	maxDepth := 0.0
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- maxDepth
			return
		case <-tick.C:
			if m, err := scrape(h); err == nil {
				maxDepth = math.Max(maxDepth, m["faclocd_queue_depth"])
			}
		}
	}
}

// collect counts the run's requests and sorts their latencies by class.
func (s *serveOpen) collect(res []sent) {
	classes := []*class{
		newClass(named{"miss_ms_p50", 50}, named{"miss_ms_p90", 90}),
		newClass(named{"hit_ms_p50", 50}, named{"hit_ms_p90", 90}),
		newClass(named{"query_ms_p50", 50}, named{"query_ms_p99", 99}),
		newClass(named{"bulk_ms_p50", 50}),
	}
	var late []float64
	for k, r := range res {
		s.o.attempted++
		late = append(late, r.lateMS())
		if !r.ok() {
			s.o.failed++
			continue
		}
		c := classes[soClassOf[s.ops[k].kind]]
		c.ms = append(c.ms, r.latencyMS())
	}
	s.o.classes = classes
	lateP99 := percentile(late, 99)
	s.o.layers["load.late_ms_p99"] = lateP99
	s.o.layers["load.conns"] = float64(s.cc.peak.Load())
	s.o.notef("load: %d requests at %g/s from %d goroutines; %d connections dialed, at most %d open; sent late by %.4g ms at p99",
		len(res), soRate, maxWorkers, s.cc.dials.Load(), s.cc.peak.Load(), lateP99)
	if lateP99 > behindMS {
		s.o.notef("FELL BEHIND SCHEDULE: p99 send delay %.4g ms exceeds %d ms; latencies measure the generator", lateP99, behindMS)
	}
	if s.cc.peak.Load() > maxWorkers {
		s.o.checkf("load shape: %d connections open at once, more than %d", s.cc.peak.Load(), maxWorkers)
	}
}

// check verifies every answer after the window: hits replay their miss
// byte for byte, queries agree with the solution and a linear scan, and a
// seeded sample of misses matches an in-process solve.
func (s *serveOpen) check(res []sent) error {
	sols := make([]*facloc.Solution, len(s.pool))
	for i, pe := range s.pool {
		rep, err := facloc.Solve(context.Background(), pe.solver, pe.in, facloc.Options{Seed: pe.seed})
		if err != nil {
			return err
		}
		sols[i] = rep.Solution
		s.checkReport(fmt.Sprintf("pool %d", i), pe.report, rep.Solution)
	}
	var misses []int
	for k, r := range res {
		if !r.ok() {
			continue
		}
		o := s.ops[k]
		pi := o.arg % soPool
		pe, sol := s.pool[pi], sols[pi]
		switch o.kind {
		case kMiss, kHit:
			var sr solveReply
			if err := json.Unmarshal(r.body, &sr); err != nil {
				s.o.checkf("op %d: %v", k, err)
				continue
			}
			if o.kind == kMiss {
				if sr.Cached {
					s.o.checkf("op %d: a fresh instance was served from cache", k)
				}
				misses = append(misses, k)
			} else if !sr.Cached || !bytes.Equal(sr.Report, pe.report) {
				s.o.checkf("op %d: hit is not a byte replay of its miss", k)
			}
		case kAssign, kNearest:
			s.checkQuery(k, r.body, pe, sol)
		case kBulk:
			s.checkBulk(k, r.body, pe, sol)
		}
	}
	rng := rand.New(rand.NewSource(s.seed))
	rng.Shuffle(len(misses), func(i, j int) { misses[i], misses[j] = misses[j], misses[i] })
	for _, k := range misses[:min(missChecks, len(misses))] {
		pi, err := missInstance(s.seed, k)
		if err != nil {
			return err
		}
		o := s.ops[k]
		rep, err := facloc.Solve(context.Background(), missSolver(o.arg), pi.in, facloc.Options{Seed: o.arg % 1000})
		if err != nil {
			return err
		}
		var sr solveReply
		_ = json.Unmarshal(res[k].body, &sr)
		s.checkReport(fmt.Sprintf("op %d", k), sr.Report, rep.Solution)
	}
	return nil
}

// checkReport compares a served report with an in-process solution.
func (s *serveOpen) checkReport(what string, report []byte, sol *facloc.Solution) {
	var rb reportBody
	if err := json.Unmarshal(report, &rb); err != nil {
		s.o.checkf("%s: report: %v", what, err)
		return
	}
	if rb.Cost != sol.Cost() || fmt.Sprint(rb.Open) != fmt.Sprint(sol.Open) {
		s.o.checkf("%s: served cost %v open %v, in-process %v open %v", what, rb.Cost, rb.Open, sol.Cost(), sol.Open)
	}
}

// checkQuery checks an /assign or /nearest answer against the client or
// point that request drew from the op's seeded parameter.
func (s *serveOpen) checkQuery(k int, body []byte, pe *poolEntry, sol *facloc.Solution) {
	var a queryAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		s.o.checkf("op %d: %v", k, err)
		return
	}
	rng := rand.New(rand.NewSource(s.ops[k].arg))
	if s.ops[k].kind == kAssign {
		s.checkAssign(k, a, rng.Intn(soNC), pe, sol)
		return
	}
	s.checkNearest(k, a, [2]float64{100 * rng.Float64(), 100 * rng.Float64()}, pe, sol)
}

func (s *serveOpen) checkAssign(k int, a queryAnswer, j int, pe *poolEntry, sol *facloc.Solution) {
	if a.Facility != sol.Assign[j] || !near(a.Distance, pe.in.Dist(a.Facility, j)) {
		s.o.checkf("op %d: client %d answered facility %d at %v, solution says %d", k, j, a.Facility, a.Distance, sol.Assign[j])
	}
}

// checkNearest compares an answer with a linear scan over the open
// facilities; any facility at the minimum distance is right.
func (s *serveOpen) checkNearest(k int, a queryAnswer, x [2]float64, pe *poolEntry, sol *facloc.Solution) {
	dist := func(i int) float64 { return math.Hypot(x[0]-pe.coords[2*i], x[1]-pe.coords[2*i+1]) }
	best, isOpen := math.Inf(1), false
	for _, i := range sol.Open {
		best = math.Min(best, dist(i))
		isOpen = isOpen || i == a.Facility
	}
	if !isOpen || !near(a.Distance, best) || !near(dist(a.Facility), best) {
		s.o.checkf("op %d: nearest to %v answered facility %d at %v, scan finds %v", k, x, a.Facility, a.Distance, best)
	}
}

func (s *serveOpen) checkBulk(k int, body []byte, pe *poolEntry, sol *facloc.Solution) {
	rng := rand.New(rand.NewSource(s.ops[k].arg))
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != bulkLines {
		s.o.checkf("op %d: %d answer lines for %d queries", k, len(lines), bulkLines)
		return
	}
	for i, line := range lines {
		var a queryAnswer
		if err := json.Unmarshal(line, &a); err != nil {
			s.o.checkf("op %d line %d: %v", k, i, err)
			return
		}
		if i%2 == 0 {
			s.checkAssign(k, a, rng.Intn(soNC), pe, sol)
		} else {
			s.checkNearest(k, a, [2]float64{100 * rng.Float64(), 100 * rng.Float64()}, pe, sol)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// layers derives the traced pass's per-layer metrics: handler time against
// client time per class, the server's own counters, and the codec calls on
// every miss body.
func (s *serveOpen) layers(res []sent, before, after []map[string]float64, maxDepth float64) {
	rec := newRecorder()
	s.o.rec = rec
	inHandler := make([][2]time.Time, len(res))
	for _, h := range s.hlog.all() {
		if h.op >= 0 && int(h.op) < len(res) {
			inHandler[h.op] = [2]time.Time{h.start, h.end}
		}
	}
	handler := make([][]float64, len(soClassNames))
	outside := make([][]float64, len(soClassNames))
	for k, r := range res {
		if !r.ok() {
			continue
		}
		c := soClassOf[s.ops[k].kind]
		name := soClassNames[c]
		root := rec.add("client."+name, r.due, r.done, -1, int64(k))
		rec.add("load.wait", r.due, r.start, root, int64(k))
		if h := inHandler[k]; !h[0].IsZero() {
			rec.add("serve.handler."+name, h[0], h[1], root, int64(k))
			hms := msOf(h[1].Sub(h[0]))
			handler[c] = append(handler[c], hms)
			outside[c] = append(outside[c], r.latencyMS()-hms)
		}
	}
	for c, name := range soClassNames {
		s.o.layers["serve.handler_ms_p50."+name] = median(handler[c])
		s.o.layers["serve.outside_ms_p50."+name] = median(outside[c])
	}
	s.o.layers["serve.solve_ms_p50"] = 1000 * histQuantile(before, after, "faclocd_solve_duration_seconds", 0.5)
	hits := ratio{grew(before, after, "faclocd_cache_hits"), grew(before, after, "faclocd_cache_hits") + grew(before, after, "faclocd_cache_misses")}
	s.o.layers["serve.cache_hit_ratio"] = hits.Value()
	s.o.notef("serve.cache_hit_ratio = %s", hits.describe("hits", "lookups (hits + misses)"))
	s.o.layers["serve.queue_depth_max"] = maxDepth
	s.o.layers["serve.rejected"] = grew(before, after, "faclocd_rejected_total")

	var decode, hash []float64
	for k, o := range s.ops {
		if o.kind != kMiss {
			continue
		}
		pi, err := missInstance(s.seed, k)
		if err != nil {
			continue
		}
		t0 := time.Now()
		in, err := facloc.ReadInstance(bytes.NewReader(pi.wire))
		t1 := time.Now()
		if err != nil {
			s.o.checkf("op %d: decoding its own body: %v", k, err)
			continue
		}
		if _, err := facloc.InstanceHash(in); err != nil {
			s.o.checkf("op %d: hashing its own body: %v", k, err)
			continue
		}
		t2 := time.Now()
		decode = append(decode, msOf(t1.Sub(t0)))
		hash = append(hash, msOf(t2.Sub(t1)))
	}
	s.o.layers["core.decode_ms_p50"] = median(decode)
	s.o.layers["core.hash_ms_p50"] = median(hash)
	s.o.notef("core.*: facloc.ReadInstance and facloc.InstanceHash on each of the %d inline miss instances, after the window", len(decode))
}
