package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	facloc "repro"
)

// testCluster is n faclocd servers over real httptest listeners, joined into
// one ring. Health probing is disabled so tests drive liveness themselves.
type testCluster struct {
	srvs []*Server
	ts   []*httptest.Server
	urls []string
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return newTestClusterWith(t, n, Config{}, nil)
}

// ownerIndex returns which server owns key (all rings agree).
func (tc *testCluster) ownerIndex(t *testing.T, key string) int {
	t.Helper()
	m, ok := tc.srvs[0].cl.ring.Owner(key)
	if !ok {
		t.Fatalf("no owner for %s", key)
	}
	for i, u := range tc.urls {
		if u == m.ID {
			return i
		}
	}
	t.Fatalf("owner %s not among the test servers", m.ID)
	return -1
}

func TestClusterSolveForwardedByHash(t *testing.T) {
	tc := newTestCluster(t, 3)
	in := facloc.GenerateUniform(61, 8, 40, 1, 6)
	hash := submitInstance(t, tc.urls[0], in)
	owner := tc.ownerIndex(t, hash)

	// Every entry point answers a hash-only solve, including nodes that never
	// saw the instance: non-owners forward to the owner (who got the instance
	// replicated on submission), and every response carries identical bytes.
	req := SolveRequest{Hash: hash, Solver: "greedy-par", Seed: 7}
	var first []byte
	for i := range tc.urls {
		code, body := postJSON(t, tc.urls[i]+"/solve", req)
		if code != http.StatusOK {
			t.Fatalf("solve via node %d: %d %s", i, code, body)
		}
		var r solveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r.Report
		} else if !bytes.Equal(first, r.Report) {
			t.Fatalf("node %d served different report bytes:\n%s\nvs\n%s", i, r.Report, first)
		}
	}
	// The owner solved it exactly once; everyone else forwarded or replayed.
	if got := tc.srvs[owner].met.solvesTotal.Load(); got != 1 {
		t.Fatalf("owner ran %d solves, want 1", got)
	}
	for i, srv := range tc.srvs {
		if i != owner && srv.met.solvesTotal.Load() != 0 {
			t.Fatalf("non-owner node %d solved locally", i)
		}
	}
	var forwards int64
	for i, srv := range tc.srvs {
		if i != owner {
			forwards += srv.cl.forwarded.Load()
		}
	}
	if forwards == 0 {
		t.Fatal("no request was forwarded to the owner")
	}
}

func TestClusterReplicatesSolutions(t *testing.T) {
	tc := newTestCluster(t, 3)
	in := facloc.GenerateUniform(62, 8, 40, 1, 6)
	hash := submitInstance(t, tc.urls[0], in)
	owner := tc.ownerIndex(t, hash)

	code, body := postJSON(t, tc.urls[owner]+"/solve", SolveRequest{Hash: hash, Solver: "pd-par", Seed: 3})
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, body)
	}
	var r solveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}

	// The entry was pushed to the owner and its successor: at least two of
	// the three daemons replay it from cache, byte-identically, without
	// forwarding (GET /solutions is local-only).
	holders := 0
	for i := range tc.urls {
		resp, err := http.Get(tc.urls[i] + "/solutions/" + r.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got solveResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Report, r.Report) {
			t.Fatalf("replica on node %d serves different bytes:\n%s\nvs\n%s", i, got.Report, r.Report)
		}
		holders++
	}
	if holders < 2 {
		t.Fatalf("solution held by %d nodes, want >= 2 (owner + replica)", holders)
	}
	if got := tc.srvs[owner].cl.replicated.Load(); got != 1 {
		t.Fatalf("owner replicated %d entries, want 1", got)
	}

	// Replicas with the instance at hand also serve the query path.
	for i := range tc.urls {
		resp, err := http.Get(tc.urls[i] + "/solutions/" + r.ID + "/assign?client=0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if i == owner && resp.StatusCode != http.StatusOK {
			t.Fatalf("owner refuses assign: %d", resp.StatusCode)
		}
	}
}

// TestClusterReplicaStoreBoundedByCache: a node keeps a replicated
// solution's bytes only while the serve cache holds the solution, so the
// store-entries gauge stays within MaxSolutions however many solves are
// replicated, and an id the cache evicted is installed again when it is
// replicated again.
func TestClusterReplicaStoreBoundedByCache(t *testing.T) {
	const maxSolutions = 2
	tc := newTestClusterWith(t, 3, Config{MaxSolutions: maxSolutions}, nil)
	in := facloc.GenerateUniform(66, 8, 40, 1, 6)
	var hash string
	for _, u := range tc.urls {
		hash = submitInstance(t, u, in)
	}
	owner := tc.ownerIndex(t, hash)
	replica := -1
	for _, m := range tc.srvs[owner].cl.ring.Successors(hash, 2) {
		if i := tc.index(t, m.ID); i != owner {
			replica = i
		}
	}
	if replica < 0 {
		t.Fatal("no replica shard besides the owner")
	}

	solve := func(seed int64) string {
		t.Helper()
		code, body := postJSON(t, tc.urls[owner]+"/solve", SolveRequest{Hash: hash, Solver: "pd-par", Seed: seed})
		if code != http.StatusOK {
			t.Fatalf("solve seed %d: %d %s", seed, code, body)
		}
		var r solveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		return r.ID
	}
	first := solve(1)
	for seed := int64(2); seed <= 3*maxSolutions; seed++ {
		solve(seed)
	}
	for i, u := range tc.urls {
		if v := metricValue(t, scrape(t, u), "faclocd_cluster_store_entries"); v > maxSolutions {
			t.Fatalf("node %d holds %v replicated entries, above the cache bound %d", i, v, maxSolutions)
		}
	}
	held := func() bool {
		resp, err := http.Get(tc.urls[replica] + "/solutions/" + first)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	if held() {
		t.Fatal("the replica still serves the first solution after the cache evicted it")
	}
	// The owner evicted it too, so solving it again replicates it again.
	if id := solve(1); id != first {
		t.Fatalf("re-solve gave id %s, want %s", id, first)
	}
	if !held() {
		t.Fatal("the replica did not reinstall an evicted solution on re-replication")
	}
}

// index returns the position of ring member id among the test servers.
func (tc *testCluster) index(t *testing.T, id string) int {
	t.Helper()
	for i, u := range tc.urls {
		if u == id {
			return i
		}
	}
	t.Fatalf("member %s is not a test server", id)
	return -1
}

func TestClusterRingEndpoint(t *testing.T) {
	tc := newTestCluster(t, 3)
	for i := range tc.urls {
		resp, err := http.Get(tc.urls[i] + "/cluster/ring")
		if err != nil {
			t.Fatal(err)
		}
		var view ringView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("ring via node %d: %d %v", i, resp.StatusCode, err)
		}
		if view.Self != tc.urls[i] {
			t.Fatalf("node %d reports self %s", i, view.Self)
		}
		if len(view.Members) != 3 {
			t.Fatalf("ring has %d members, want 3", len(view.Members))
		}
		for _, m := range view.Members {
			if !m.Alive {
				t.Fatalf("member %s not alive at startup", m.ID)
			}
		}
	}

	// A single-node daemon 404s — that is how faclocsolve tells the two apart.
	_, single := newTestServer(t, Config{})
	resp, err := http.Get(single.URL + "/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unclustered ring endpoint: %d, want 404", resp.StatusCode)
	}
}

// TestClusterDistributedSolveBitwiseMatchesLocal is the serve-layer
// conformance check: "pd-dist" on a real 3-daemon HTTP cluster returns the
// same solution — to the last float64 bit — as pd-par and as the in-process
// pd-dist solver run locally.
func TestClusterDistributedSolveBitwiseMatchesLocal(t *testing.T) {
	tc := newTestCluster(t, 3)
	in := facloc.GenerateUniform(63, 10, 50, 1, 6)
	hash := submitInstance(t, tc.urls[0], in)
	owner := tc.ownerIndex(t, hash)

	code, body := postJSON(t, tc.urls[owner]+"/solve", SolveRequest{Hash: hash, Solver: DistSolverName, Seed: 5, Epsilon: 0.2})
	if code != http.StatusOK {
		t.Fatalf("distributed solve: %d %s", code, body)
	}
	var r solveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	var view reportView
	if err := json.Unmarshal(r.Report, &view); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"pd-par", DistSolverName} {
		direct, err := facloc.Solve(t.Context(), name, in, facloc.Options{Seed: 5, Epsilon: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(view.FacilityCost) != math.Float64bits(direct.Solution.FacilityCost) ||
			math.Float64bits(view.ConnectionCost) != math.Float64bits(direct.Solution.ConnectionCost) ||
			fmt.Sprint(view.Open) != fmt.Sprint(direct.Solution.Open) {
			t.Fatalf("HTTP distributed solve diverges from local %s:\n%s\nvs %+v", name, r.Report, direct.Solution)
		}
	}

	// Every shard ran exactly one distributed leg.
	for i, srv := range tc.srvs {
		if got := srv.cl.distSolves.Load(); got != 1 {
			t.Fatalf("node %d ran %d distributed legs, want 1", i, got)
		}
		if srv.cl.framesIn.Load() == 0 && len(tc.srvs) > 1 {
			t.Fatalf("node %d saw no frames — the solve was not distributed", i)
		}
	}
}

// TestClusterHealsAroundDeadShard kills the shard owning an instance and
// checks the cluster routes around it: the forward fails, the receiving
// shard marks it dead (heals the ring) and serves the request itself.
func TestClusterHealsAroundDeadShard(t *testing.T) {
	tc := newTestCluster(t, 3)
	in := facloc.GenerateUniform(64, 8, 40, 1, 6)
	// Submitted on every node (content addressing makes this idempotent), so
	// survivors can serve it when the owner dies mid-cluster.
	var hash string
	for _, u := range tc.urls {
		hash = submitInstance(t, u, in)
	}
	owner := tc.ownerIndex(t, hash)
	alive := (owner + 1) % 3

	tc.ts[owner].Close()

	code, body := postJSON(t, tc.urls[alive]+"/solve", SolveRequest{Hash: hash, Solver: "greedy-par", Seed: 9})
	if code != http.StatusOK {
		t.Fatalf("solve after owner death: %d %s", code, body)
	}
	if got := tc.srvs[alive].met.solvesTotal.Load(); got != 1 {
		t.Fatalf("surviving node ran %d solves, want 1 (served locally)", got)
	}

	// The failed forward healed the ring: the dead shard is marked not alive.
	resp, err := http.Get(tc.urls[alive] + "/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	var view ringView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range view.Members {
		if m.ID == tc.urls[owner] && m.Alive {
			t.Fatal("dead shard still marked alive after a failed forward")
		}
		if m.ID == tc.urls[alive] && !m.Alive {
			t.Fatal("surviving shard marked dead")
		}
	}

	// New work now routes to live successors only: a fresh instance owned by
	// the dead shard is still solvable everywhere.
	in2 := facloc.GenerateUniform(65, 8, 40, 1, 6)
	hash2 := submitInstance(t, tc.urls[alive], in2)
	code, body = postJSON(t, tc.urls[alive]+"/solve", SolveRequest{Hash: hash2, Solver: "greedy-par", Seed: 9})
	if code != http.StatusOK {
		t.Fatalf("solve with a dead ring member: %d %s", code, body)
	}
}

func TestClusterMetricsExposed(t *testing.T) {
	tc := newTestCluster(t, 2)
	resp, err := http.Get(tc.urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := readCapped(resp.Body, 1<<20)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"faclocd_cluster_peers 2",
		"faclocd_cluster_peers_alive 2",
		"faclocd_cluster_replicated_total",
		"faclocd_cluster_frames_in_total",
		"faclocd_cluster_dist_solves_total",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("metrics missing %q:\n%s", want, b)
		}
	}

	// Unclustered daemons emit no cluster lines at all.
	_, single := newTestServer(t, Config{})
	resp, err = http.Get(single.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err = readCapped(resp.Body, 1<<20)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "faclocd_cluster_") {
		t.Fatalf("single-node daemon leaks cluster metrics:\n%s", b)
	}
}

func TestEnableClusterValidation(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableCluster(ClusterConfig{Self: "a", Peers: nil}); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if err := srv.EnableCluster(ClusterConfig{Self: "c", Peers: []string{"a", "b"}}); err == nil {
		t.Fatal("self outside the peer list accepted")
	}
	if err := srv.EnableCluster(ClusterConfig{Self: "a", Peers: []string{"a", "b"}, HealthInterval: -1}); err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableCluster(ClusterConfig{Self: "a", Peers: []string{"a", "b"}, HealthInterval: -1}); err == nil {
		t.Fatal("double EnableCluster accepted")
	}
}
