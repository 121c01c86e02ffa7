package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	facloc "repro"
	"repro/internal/serve"
)

// The cluster-pd-dist workload: three serve.Servers joined into one ring
// over loopback HTTP, driven by one closed-loop caller on one connection.
const (
	clShards   = 3
	clNF, clNC = 32, 512
)

type instanceMeta struct {
	Hash     string `json:"hash"`
	Degraded bool   `json:"degraded"`
}

// clusterOp is one iteration: a put of a fresh instance, then a pd-dist
// solve of it by hash on another shard.
type clusterOp struct {
	put, dist    sent
	putDegraded  bool
	distDegraded bool
	report       []byte
}

type clusterRun struct {
	o      *outcome
	seed   int64
	traced bool
	shards []*shard
	hlog   *handlerLog
	cur    atomic.Int64 // op in flight, for peer requests' handler time
	cc     *connCounter
	client *http.Client
}

func runCluster(p pass) (*outcome, error) {
	c := &clusterRun{seed: p.seed, traced: p.traced, o: &outcome{layers: map[string]float64{}}}
	for r := 0; r < p.reps; r++ {
		start := setupClock()
		c.stop()
		if err := c.setup(); err != nil {
			return nil, err
		}
		c.o.setupS = append(c.o.setupS, time.Since(start).Seconds())
	}
	defer c.stop()
	before, err := c.scrapeAll()
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	windowStart := time.Now()
	deadline := windowStart.Add(time.Duration(p.seconds * float64(time.Second)))
	var ops []*clusterOp
	for i := 0; time.Now().Before(deadline); i++ {
		op, err := c.iteration(i)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	c.o.rssMB = peakRSSMB()
	after, err := c.scrapeAll()
	if err != nil {
		return nil, err
	}
	dist := newClass(named{"dist_ms_p50", 50})
	put := newClass(named{"put_ms_p50", 50})
	c.o.classes = []*class{dist, put}
	for _, op := range ops {
		for _, x := range []struct {
			s sent
			c *class
		}{{op.put, put}, {op.dist, dist}} {
			c.o.attempted++
			if !x.s.ok() {
				c.o.failed++
				c.o.notef("request failed: status %d %v %s", x.s.status, x.s.err, x.s.body)
				continue
			}
			x.c.ms = append(x.c.ms, x.s.latencyMS())
		}
	}
	c.o.layers["load.conns"] = float64(c.cc.peak.Load())
	c.o.notef("load: one closed-loop caller; %d connections dialed, at most %d open", c.cc.dials.Load(), c.cc.peak.Load())
	if c.cc.peak.Load() > 1 {
		c.o.checkf("load shape: %d connections open at once, want 1", c.cc.peak.Load())
	}
	local := c.check(ops)
	if c.traced {
		if err := c.layers(ops, local, before, after, windowStart); err != nil {
			return nil, err
		}
	}
	return c.o, nil
}

// setup starts the shards, joins them into a ring with the health loop
// off, and warms the put and pd-dist paths up once.
func (c *clusterRun) setup() error {
	c.shards = nil
	urls := make([]string, clShards)
	for i := range urls {
		sh, err := listen()
		if err != nil {
			return err
		}
		c.shards = append(c.shards, sh)
		urls[i] = sh.url
	}
	var wrap func(http.Handler) http.Handler
	if c.traced {
		c.hlog = &handlerLog{cur: &c.cur}
		wrap = c.hlog.wrap
	}
	for i, sh := range c.shards {
		srv, err := serve.New(serve.Config{})
		if err != nil {
			return err
		}
		if err := srv.EnableCluster(serve.ClusterConfig{Self: urls[i], Peers: urls, HealthInterval: -1}); err != nil {
			return err
		}
		sh.start(srv, wrap)
	}
	c.cc = &connCounter{}
	c.client = newClient(1, false, c.cc)
	c.cur.Store(-1)
	op, err := c.iteration(-1)
	if err != nil {
		return err
	}
	if !op.put.ok() || !op.dist.ok() {
		return fmt.Errorf("cluster warm-up: put %d %v, dist %d %v %s", op.put.status, op.put.err, op.dist.status, op.dist.err, op.dist.body)
	}
	return nil
}

func (c *clusterRun) stop() {
	for _, sh := range c.shards {
		sh.stop()
	}
	c.shards = nil
}

func (c *clusterRun) instance(i int) (*facloc.Instance, int64) {
	s := facloc.DeriveSeed(c.seed, i)
	return facloc.GenerateUniform(s, clNF, clNC, 1, 10), s & 0xffff
}

// iteration puts instance i on shard i mod 3, then asks the next shard to
// solve it with pd-dist.
func (c *clusterRun) iteration(i int) (*clusterOp, error) {
	in, seed := c.instance(i)
	var body bytes.Buffer
	if err := facloc.WriteInstance(&body, in); err != nil {
		return nil, err
	}
	op := &clusterOp{}
	at := func(k int) string { return c.shards[((k%clShards)+clShards)%clShards].url }
	// Collect the previous iteration's garbage before timing this one.
	runtime.GC()

	c.cur.Store(int64(2 * i))
	op.put = c.call(http.MethodPost, at(i)+"/instances", body.Bytes(), 2*i)
	var meta instanceMeta
	if op.put.ok() {
		if err := json.Unmarshal(op.put.body, &meta); err != nil {
			return nil, fmt.Errorf("cluster put: %w", err)
		}
		op.putDegraded = meta.Degraded
	}
	req, err := json.Marshal(serve.SolveRequest{Hash: meta.Hash, Solver: serve.DistSolverName, Seed: seed})
	if err != nil {
		return nil, err
	}
	c.cur.Store(int64(2*i + 1))
	op.dist = c.call(http.MethodPost, at(i+1)+"/solve", req, 2*i+1)
	if op.dist.ok() {
		var sr solveReply
		if err := json.Unmarshal(op.dist.body, &sr); err != nil {
			return nil, fmt.Errorf("cluster solve: %w", err)
		}
		op.report, op.distDegraded = sr.Report, sr.Degraded
	}
	return op, nil
}

// call sends one request of the closed loop; its due time is when it was
// sent, since a closed loop waits for the previous reply.
func (c *clusterRun) call(method, url string, body []byte, opID int) sent {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return sent{reply: reply{err: err}}
	}
	if c.traced {
		req.Header.Set(opHeader, strconv.Itoa(opID))
	}
	start := time.Now()
	r := send(c.client, req)
	return sent{due: start, start: start, done: time.Now(), reply: r}
}

func (c *clusterRun) scrapeAll() ([]map[string]float64, error) {
	var out []map[string]float64
	for _, sh := range c.shards {
		m, err := scrape(sh.srv.Handler())
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// check compares every pd-dist answer bit for bit with an in-process
// pd-par solve of the same instance and seed, and returns how long each of
// those local solves took.
func (c *clusterRun) check(ops []*clusterOp) []float64 {
	local := make([]float64, len(ops))
	for i, op := range ops {
		if op.putDegraded || op.distDegraded {
			c.o.checkf("op %d: served degraded (put %v, solve %v)", i, op.putDegraded, op.distDegraded)
		}
		if !op.dist.ok() {
			continue
		}
		in, seed := c.instance(i)
		t0 := time.Now()
		rep, err := facloc.Solve(context.Background(), "pd-par", in, facloc.Options{Seed: seed})
		local[i] = msOf(time.Since(t0))
		if err != nil {
			c.o.checkf("op %d: local pd-par: %v", i, err)
			continue
		}
		var rb reportBody
		if err := json.Unmarshal(op.report, &rb); err != nil {
			c.o.checkf("op %d: report: %v", i, err)
			continue
		}
		if rb.Cost != rep.Solution.Cost() || fmt.Sprint(rb.Open) != fmt.Sprint(rep.Solution.Open) {
			c.o.checkf("op %d: pd-dist cost %v open %v, local pd-par %v open %v", i, rb.Cost, rb.Open, rep.Solution.Cost(), rep.Solution.Open)
		}
	}
	return local
}

// handlerSpan names a request the handler wrapper saw by what it does.
func handlerSpan(path string) string {
	switch path {
	case "/instances":
		return "serve.handler.put"
	case "/solve":
		return "serve.handler.solve"
	case "/cluster/solve":
		return "serve.handler.dist_leg"
	case "/cluster/frame":
		return "cluster.frame_handler"
	}
	return "serve.handler.other"
}

// layers derives the traced pass's per-layer metrics from the handler
// wrappers, the three shards' /metrics and /debug/solves, and the local
// pd-par solves of the answer check.
func (c *clusterRun) layers(ops []*clusterOp, local []float64, before, after []map[string]float64, windowStart time.Time) error {
	rec := newRecorder()
	c.o.rec = rec
	roots := map[int64]int{}
	var overhead []float64
	for i, op := range ops {
		roots[int64(2*i)] = rec.add("client.put", op.put.start, op.put.done, -1, int64(2*i))
		roots[int64(2*i+1)] = rec.add("client.dist", op.dist.start, op.dist.done, -1, int64(2*i+1))
		if op.dist.ok() {
			overhead = append(overhead, op.dist.latencyMS()-local[i])
		}
	}
	// Each op's handler spans nest by containment across the shards: a
	// forwarded /solve inside the entry shard's, the peers' legs inside the
	// owner's, and frames inside the legs.
	hs := c.hlog.all()
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].op != hs[j].op {
			return hs[i].op < hs[j].op
		}
		if !hs[i].start.Equal(hs[j].start) {
			return hs[i].start.Before(hs[j].start)
		}
		return hs[i].end.After(hs[j].end)
	})
	var frameMS []float64
	var open []int // the current op's enclosing spans, outermost first
	var openEnd []time.Time
	for i, h := range hs {
		root, ok := roots[h.op]
		if !ok {
			continue
		}
		if i == 0 || hs[i-1].op != h.op {
			open, openEnd = open[:0], openEnd[:0]
		}
		for len(open) > 0 && openEnd[len(open)-1].Before(h.end) {
			open, openEnd = open[:len(open)-1], openEnd[:len(openEnd)-1]
		}
		parent := root
		if len(open) > 0 {
			parent = open[len(open)-1]
		}
		open = append(open, rec.add(handlerSpan(h.path), h.start, h.end, parent, h.op))
		openEnd = append(openEnd, h.end)
		if h.path == "/cluster/frame" {
			frameMS = append(frameMS, msOf(h.end.Sub(h.start)))
		}
	}
	c.o.layers["cluster.overhead_ms_p50"] = median(overhead)
	c.o.notef("cluster.overhead_ms_p50: pd-dist latency minus an in-process pd-par solve of the same instance and seed (local p50 %.4g ms)", median(local))
	c.o.layers["cluster.frame_handler_ms_p50"] = median(frameMS)
	c.o.layers["cluster.frame_rtt_ms_p50"] = 1000 * histQuantile(before, after, "faclocd_cluster_frame_rtt_seconds", 0.5)

	var barriers, bytesPerLeg []float64
	total := 0.0
	for _, sh := range c.shards {
		ts, err := debugSolves(sh.srv.Handler())
		if err != nil {
			return err
		}
		for _, t := range ts {
			if t.Solver != serve.DistSolverName || t.Start.Before(windowStart) {
				continue
			}
			n, b := 0, 0
			for _, ev := range t.Events {
				if ev.Phase == "barrier" {
					n++
					b += ev.Bytes
				}
			}
			barriers = append(barriers, float64(n))
			bytesPerLeg = append(bytesPerLeg, float64(b))
			total += float64(n)
		}
	}
	c.o.layers["cluster.barriers"] = median(barriers)
	c.o.layers["cluster.barrier_bytes"] = median(bytesPerLeg)
	frames := grew(before, after, "faclocd_cluster_frames_in_total")
	fpb := ratio{frames, total * (clShards - 1)}
	c.o.layers["cluster.frames_per_barrier"] = fpb.Value()
	c.o.notef("cluster.frames_per_barrier = %s; the frames include replication puts and acks",
		fpb.describe("frames in", fmt.Sprintf("(%g barrier events in %d leg traces × %d peers)", total, len(barriers), clShards-1)))
	n := float64(len(ops))
	c.o.layers["cluster.replicated"] = grew(before, after, "faclocd_cluster_replicated_total") / n
	c.o.layers["cluster.forwarded"] = grew(before, after, "faclocd_cluster_forwarded_total") / n
	retries := grew(before, after, "faclocd_cluster_peer_retries_total")
	trips := grew(before, after, "faclocd_cluster_breaker_transitions_total")
	c.o.layers["resilience.peer_retries"] = retries
	c.o.layers["resilience.breaker_transitions"] = trips
	if retries != 0 || trips != 0 {
		c.o.notef("RECOVERY PATH FIRED on a fault-free load: %g peer retries, %g breaker transitions", retries, trips)
	}

	var decode, hash []float64
	for i := range ops {
		in, _ := c.instance(i)
		var body bytes.Buffer
		if err := facloc.WriteInstance(&body, in); err != nil {
			return err
		}
		t0 := time.Now()
		got, err := facloc.ReadInstance(&body)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := facloc.InstanceHash(got); err != nil {
			return err
		}
		decode = append(decode, msOf(t1.Sub(t0)))
		hash = append(hash, msOf(time.Since(t1)))
	}
	c.o.layers["core.decode_ms_p50"] = median(decode)
	c.o.layers["core.hash_ms_p50"] = median(hash)
	return nil
}
