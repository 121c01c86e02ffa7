package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	facloc "repro"
	"repro/internal/resilience"
)

// captureTransport records the resilience deadline header stamped on every
// outbound peer request, then forwards to the real transport.
type captureTransport struct {
	inner http.RoundTripper
	mu    sync.Mutex
	stamp []string // every X-Facloc-Deadline value seen, in send order
	paths []string
}

func (c *captureTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.stamp = append(c.stamp, r.Header.Get(resilience.DeadlineHeader))
	c.paths = append(c.paths, r.URL.Path)
	c.mu.Unlock()
	return c.inner.RoundTrip(r)
}

func (c *captureTransport) snapshot() ([]string, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.stamp...), append([]string(nil), c.paths...)
}

// newTestClusterWith is newTestCluster with every server built from srvCfg
// and a per-node config hook, so tests can bound the caches, install capture
// transports or tighten timeouts.
func newTestClusterWith(t *testing.T, n int, srvCfg Config, tweak func(i int, cfg *ClusterConfig)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		srv, err := New(srvCfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		tc.srvs = append(tc.srvs, srv)
		tc.ts = append(tc.ts, ts)
		tc.urls = append(tc.urls, ts.URL)
	}
	for i, srv := range tc.srvs {
		cfg := ClusterConfig{
			Self:           tc.urls[i],
			Peers:          tc.urls,
			HealthInterval: -1,
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		if err := srv.EnableCluster(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

// waitSettled waits for the process goroutine count to fall back near the
// baseline — the chaos invariant that failed cluster work leaks nothing.
// Slack covers idle HTTP keep-alive connections, which park a reader
// goroutine each and are bounded by the transport's idle-conn caps.
func waitSettled(t *testing.T, baseline, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		runtime.GC()
		if now = runtime.NumGoroutine(); now <= baseline+slack {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d now vs %d baseline (+%d slack)", now, baseline, slack)
}

// settled waits for the goroutine count to stop moving, then returns it — a
// stable baseline taken after warm-up traffic has established its keep-alive
// connections.
func settled(t *testing.T) int {
	t.Helper()
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		now := runtime.NumGoroutine()
		if now == prev {
			return now
		}
		prev = now
	}
	return prev
}

// TestForwardStampsShrinkingBudget is the deadline-propagation invariant: a
// request arriving with a deadline budget forwards with the REMAINING budget
// stamped on the wire — always positive, never more than what arrived, and
// never more than the per-attempt cap.
func TestForwardStampsShrinkingBudget(t *testing.T) {
	captures := make([]*captureTransport, 3)
	tc := newTestClusterWith(t, 3, Config{}, func(i int, cfg *ClusterConfig) {
		captures[i] = &captureTransport{inner: http.DefaultTransport}
		cfg.Client = &http.Client{Transport: captures[i]}
	})
	in := facloc.GenerateUniform(71, 8, 40, 1, 6)
	hash := submitInstance(t, tc.urls[0], in)
	owner := tc.ownerIndex(t, hash)
	from := (owner + 1) % 3

	const budgetMS = 5000
	body, err := json.Marshal(SolveRequest{Hash: hash, Solver: "greedy-par", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, tc.urls[from]+"/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(resilience.DeadlineHeader, strconv.Itoa(budgetMS))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted solve: %d", resp.StatusCode)
	}

	stamps, paths := captures[from].snapshot()
	attemptCapMS := int64(2000) // resilience.Policy default per-attempt cap
	checked := 0
	for i, v := range stamps {
		if paths[i] != "/solve" {
			continue
		}
		checked++
		if v == "" {
			t.Fatalf("forwarded /solve carried no %s header", resilience.DeadlineHeader)
		}
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			t.Fatalf("forwarded budget %q is not a positive integer", v)
		}
		if ms > budgetMS {
			t.Fatalf("forwarded budget %dms exceeds the caller's %dms", ms, budgetMS)
		}
		if ms > attemptCapMS {
			t.Fatalf("forwarded budget %dms exceeds the per-attempt cap %dms", ms, attemptCapMS)
		}
	}
	if checked == 0 {
		t.Fatal("no forwarded /solve request was captured")
	}
}

// TestSolveBudgetExhaustedAndMalformed: a spent budget fails loudly as 504
// (never a partial or silently-late answer), and a malformed header is the
// client's 400.
func TestSolveBudgetExhaustedAndMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Big enough that the solve cannot finish inside a 1ms budget, so the
	// deadline reliably fires mid-flight rather than racing a fast solver.
	in := facloc.GenerateUniform(72, 300, 3000, 1, 6)
	hash := submitInstance(t, ts.URL, in)
	body, err := json.Marshal(SolveRequest{Hash: hash, Solver: "pd-par", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	do := func(budget string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/solve", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(resilience.DeadlineHeader, budget)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := do("1"); code != http.StatusGatewayTimeout && code != http.StatusServiceUnavailable {
		t.Fatalf("1ms budget returned %d, want 504 (or 503 at the queue)", code)
	}
	for _, bad := range []string{"-5", "0", "soon", "1.5"} {
		if code := do(bad); code != http.StatusBadRequest {
			t.Fatalf("malformed budget %q returned %d, want 400", bad, code)
		}
	}
}

// TestClusterSolveKillMidFanout kills a shard under a distributed solve.
// Without allow_degraded the answer is a loud error naming the dead shard —
// never a partial solution. With allow_degraded the same request serves a
// local pd-par fallback labeled degraded:true, and the clean pd-dist cache
// key stays vacant. Run under -race; goroutines must settle afterwards.
func TestClusterSolveKillMidFanout(t *testing.T) {
	tc := newTestClusterWith(t, 3, Config{}, func(i int, cfg *ClusterConfig) {
		cfg.Timeout = 100 * time.Millisecond // tight NACK ladder: loud failure in ~ms, not seconds
		cfg.Retries = 3
	})
	in := facloc.GenerateUniform(73, 10, 50, 1, 6)
	var hash string
	for _, u := range tc.urls {
		hash = submitInstance(t, u, in)
	}
	owner := tc.ownerIndex(t, hash)
	victim := (owner + 1) % 3

	tc.ts[victim].Close() // SIGKILL-equivalent: connections refused from here on

	// Whole-or-error: the coordinator must name the dead shard, not hang and
	// not serve a partial round.
	code, body := postJSON(t, tc.urls[owner]+"/solve", SolveRequest{Hash: hash, Solver: DistSolverName, Seed: 5, Epsilon: 0.2})
	if code == http.StatusOK {
		t.Fatalf("distributed solve with a dead shard returned 200: %s", body)
	}
	if !strings.Contains(string(body), tc.urls[victim]) {
		t.Fatalf("error does not name the dead shard %s: %s", tc.urls[victim], body)
	}

	// The first failed round established every connection this workload will
	// ever hold; further chaos must not leak beyond it.
	baseline := settled(t)

	// Same request, opted into degraded mode: a labeled local fallback.
	code, body = postJSON(t, tc.urls[owner]+"/solve", SolveRequest{
		Hash: hash, Solver: DistSolverName, Seed: 5, Epsilon: 0.2, AllowDegraded: true,
	})
	if code != http.StatusOK {
		t.Fatalf("degraded solve: %d %s", code, body)
	}
	var r solveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Degraded {
		t.Fatalf("fallback response not labeled degraded: %s", body)
	}
	if tc.srvs[owner].cl.degradedServed.Load() == 0 {
		t.Fatal("degraded counter did not move")
	}

	// The fallback matches a direct local pd-par solve bit for bit.
	direct, err := facloc.Solve(t.Context(), "pd-par", in, facloc.Options{Seed: 5, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var view reportView
	if err := json.Unmarshal(r.Report, &view); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(view.Open) != fmt.Sprint(direct.Solution.Open) {
		t.Fatalf("degraded fallback diverges from local pd-par: %s vs %+v", r.Report, direct.Solution)
	}

	// The degraded answer never polluted the clean pd-dist key: a strict
	// retry still fails rather than replaying the fallback from cache.
	code, body = postJSON(t, tc.urls[owner]+"/solve", SolveRequest{Hash: hash, Solver: DistSolverName, Seed: 5, Epsilon: 0.2})
	if code == http.StatusOK {
		t.Fatalf("strict pd-dist after degraded serve returned 200 — fallback leaked into the clean cache key: %s", body)
	}

	waitSettled(t, baseline, 8)
}

// TestClusterDegradedSkipsFanoutWhenImpaired: once the ring knows a member is
// dead, an allow_degraded pd-dist request skips the doomed fan-out entirely
// and serves the fallback immediately.
func TestClusterDegradedSkipsFanoutWhenImpaired(t *testing.T) {
	tc := newTestCluster(t, 3)
	in := facloc.GenerateUniform(74, 8, 40, 1, 6)
	hash := submitInstance(t, tc.urls[0], in)
	owner := tc.ownerIndex(t, hash)
	victim := (owner + 1) % 3

	tc.ts[victim].Close()
	for _, srv := range tc.srvs {
		srv.cl.noteLiveness(tc.urls[victim], false)
	}

	code, body := postJSON(t, tc.urls[owner]+"/solve", SolveRequest{
		Hash: hash, Solver: DistSolverName, Seed: 2, AllowDegraded: true,
	})
	if code != http.StatusOK {
		t.Fatalf("degraded solve on impaired ring: %d %s", code, body)
	}
	var r solveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Degraded {
		t.Fatalf("impaired-ring response not labeled degraded: %s", body)
	}
	// The doomed fan-out was skipped outright: no shard ran a distributed leg.
	for i, srv := range tc.srvs {
		if got := srv.cl.distSolves.Load(); got != 0 {
			t.Fatalf("node %d ran %d distributed legs on an impaired ring, want 0", i, got)
		}
	}
}

// TestPutInstanceQuorum: with a replica down, the default put fails loudly
// (503, instance still stored locally for an idempotent retry) while an
// allow_degraded put acks at majority quorum, labeled degraded.
func TestPutInstanceQuorum(t *testing.T) {
	tc := newTestClusterWith(t, 3, Config{}, func(i int, cfg *ClusterConfig) {
		cfg.Replicas = 3 // full-ring replica set: quorum 2 survives one death
		cfg.Timeout = 100 * time.Millisecond
		cfg.Retries = 2
	})
	victim := 2
	tc.ts[victim].Close()
	alive := 0

	put := func(in *facloc.Instance, query string) (int, instanceMeta) {
		t.Helper()
		var buf bytes.Buffer
		if err := facloc.WriteInstance(&buf, in); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(tc.urls[alive]+"/instances"+query, "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var meta instanceMeta
		_ = json.NewDecoder(resp.Body).Decode(&meta)
		return resp.StatusCode, meta
	}

	in := facloc.GenerateUniform(75, 8, 40, 1, 6)
	code, _ := put(in, "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("strict put with a dead replica: %d, want 503", code)
	}

	// Same body, opted into quorum: acked by the two survivors, labeled.
	code, meta := put(in, "?allow_degraded=1")
	if code != http.StatusOK && code != http.StatusCreated {
		t.Fatalf("quorum put: %d", code)
	}
	if !meta.Degraded {
		t.Fatal("quorum put not labeled degraded")
	}
	if tc.srvs[alive].cl.quorumPuts.Load() == 0 {
		t.Fatal("quorum put counter did not move")
	}

	// A healthy put is not degraded and replication reaches everyone alive.
	tc2in := facloc.GenerateUniform(76, 8, 40, 1, 6)
	for _, srv := range tc.srvs[:2] {
		srv.cl.noteLiveness(tc.urls[victim], false)
	}
	code, meta = put(tc2in, "")
	if code != http.StatusCreated {
		t.Fatalf("put on healed ring: %d", code)
	}
	if meta.Degraded {
		t.Fatal("healed-ring put labeled degraded")
	}
}

// TestBreakerStateOnRing: repeated failures against a dead peer trip its
// breaker, the state shows on /cluster/ring, and the trip is counted.
func TestBreakerStateOnRing(t *testing.T) {
	tc := newTestClusterWith(t, 2, Config{}, func(i int, cfg *ClusterConfig) {
		cfg.Resilience.Breaker = resilience.BreakerConfig{Window: 4, MinSamples: 2, Threshold: 0.5}
		cfg.Timeout = 50 * time.Millisecond
		cfg.Retries = 1
	})
	victim := 1
	tc.ts[victim].Close()

	// Hammer the dead peer until its breaker trips (each forward attempt
	// records failures).
	in := facloc.GenerateUniform(77, 8, 40, 1, 6)
	var buf bytes.Buffer
	if err := facloc.WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		resp, err := http.Post(tc.urls[0]+"/instances?allow_degraded=1", "application/json", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	br := tc.srvs[0].cl.breakerFor(tc.urls[victim])
	if br == nil {
		t.Fatal("no breaker built for peer")
	}
	if got := br.State(); got != resilience.BreakerOpen {
		t.Fatalf("breaker for dead peer is %v, want open", got)
	}

	resp, err := http.Get(tc.urls[0] + "/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	var view ringView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range view.Members {
		if m.ID == tc.urls[victim] {
			found = true
			if m.Breaker != "open" {
				t.Fatalf("ring shows breaker %q for dead peer, want open", m.Breaker)
			}
		} else if m.Breaker != "closed" {
			t.Fatalf("ring shows breaker %q for healthy member %s", m.Breaker, m.ID)
		}
	}
	if !found {
		t.Fatal("dead peer missing from ring view")
	}

	// The trip reached the metrics page, labeled by peer.
	mresp, err := http.Get(tc.urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := readCapped(mresp.Body, 1<<20)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mb), "faclocd_cluster_breaker_transitions_total{") {
		t.Fatalf("metrics missing breaker transition series:\n%s", mb)
	}
	if !strings.Contains(string(mb), "faclocd_cluster_breaker_open 1") {
		t.Fatalf("metrics missing open-breaker gauge:\n%s", mb)
	}
}
