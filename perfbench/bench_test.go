package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		left int
	}{
		{19, 50, false, 9},
		{20, 50, true, 10},
		{99, 50, true, 49},
		{100, 90, true, 10},
		{999, 90, true, 99},
		{1000, 99, true, 10},
		{9999, 99, true, 99},
		{10000, 99.9, true, 10},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.p || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = p%g %v, want p%g %v", tc.n, p, ok, tc.p, tc.ok)
		}
		if got := beyond(p, tc.n); got != tc.left {
			t.Errorf("n=%d: %d samples beyond p%g, want %d", tc.n, got, p, tc.left)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := geomean([]float64{1, 4, 16}); got < 3.999 || got > 4.001 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestRescaledMedian(t *testing.T) {
	xs := []float64{10, 30, 20}
	if got := rescaledMedian(xs, nil); got != 20 {
		t.Errorf("no readings: %v, want the plain median 20", got)
	}
	nominal := []float64{refNominalMS, refNominalMS, refNominalMS}
	if got := rescaledMedian(xs, nominal); got != 20 {
		t.Errorf("readings at nominal: %v, want 20", got)
	}
	// A call made while the reference ran twice as slow counts as
	// 2^refExponent times faster.
	slow := []float64{refNominalMS, 2 * refNominalMS, refNominalMS}
	want := 30 / math.Pow(2, refExponent)
	if got := rescaledMedian([]float64{10, 30, 40}, slow); math.Abs(got-want) > 1e-9 {
		t.Errorf("reading twice nominal: %v, want %v", got, want)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(7, 1000, 2, soMix)
	b := schedule(7, 1000, 2, soMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if len(a) != 2000 || a[1].at-a[0].at != time.Millisecond {
		t.Fatalf("%d ops %v apart, want 2000 ops 1ms apart", len(a), a[1].at-a[0].at)
	}
	if reflect.DeepEqual(a, schedule(8, 1000, 2, soMix)) {
		t.Fatal("two seeds gave the same schedule")
	}
	counts := make([]int, len(soMix))
	for _, o := range a {
		counts[o.kind]++
	}
	for kind, share := range soMix {
		if got := float64(counts[kind]) / float64(len(a)); got < share-0.04 || got > share+0.04 {
			t.Errorf("kind %d: share %.3f, want about %.3f", kind, got, share)
		}
	}
}

// TestOpenLoopChargesStall stalls one request for 100 ms with one worker:
// the requests queued behind it are sent late and their latency, counted
// from when each was due, carries the stall.
func TestOpenLoopChargesStall(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 3 {
			time.Sleep(100 * time.Millisecond)
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	cc := &connCounter{}
	cl := newClient(1, true, cc)
	ops := schedule(1, 200, 0.05, []float64{1}) // 10 ops, 5 ms apart
	res := openLoop(ops, 1, time.Now().Add(10*time.Millisecond), func(k int, o op) reply {
		req, err := http.NewRequest(http.MethodGet, ts.URL, nil)
		if err != nil {
			return reply{err: err}
		}
		return send(cl, req)
	})
	for k, r := range res {
		if !r.ok() {
			t.Fatalf("op %d: %v %d", k, r.err, r.status)
		}
	}
	if res[2].latencyMS() < 100 {
		t.Errorf("stalled op latency %.1f ms, want at least 100", res[2].latencyMS())
	}
	// Op 3 was due 5 ms after the stalled op, op 4 10 ms after it.
	for k, want := range map[int]float64{3: 90, 4: 85} {
		if res[k].latencyMS() < want || res[k].lateMS() < want {
			t.Errorf("op %d queued behind the stall: latency %.1f ms, late %.1f ms, want both at least %.0f",
				k, res[k].latencyMS(), res[k].lateMS(), want)
		}
	}
	if res[9].start.Before(res[2].done) {
		t.Error("the single worker sent a request while the stalled one was in flight")
	}
	if cc.peak.Load() != 1 {
		t.Errorf("%d connections open at once, want 1", cc.peak.Load())
	}
}

func TestCheckLoadShape(t *testing.T) {
	if err := checkLoadShape(2, 2, 2); err != nil {
		t.Errorf("two workers on two CPUs refused: %v", err)
	}
	if checkLoadShape(3, 2, 2) == nil || checkLoadShape(2, 3, 2) == nil || checkLoadShape(2, 2, 1) == nil {
		t.Error("a generator wider than nproc was allowed")
	}
}

func TestRatiosPrintTheirBases(t *testing.T) {
	fpb := ratio{Num: 12, Den: 6}
	if got := fpb.describe("frames in", "barrier events × peers"); got != "2 (12 frames in / 6 barrier events × peers)" {
		t.Errorf("frames_per_barrier prints %q", got)
	}
	hits := ratio{Num: 3, Den: 4}
	if got := hits.describe("hits", "lookups"); got != "0.75 (3 hits / 4 lookups)" {
		t.Errorf("cache_hit_ratio prints %q", got)
	}
	if got := (ratio{}).describe("hits", "lookups"); got != "0 (0 hits / 0 lookups)" {
		t.Errorf("an empty base prints %q", got)
	}
}

func TestHistQuantileInterpolatesBetweenScrapes(t *testing.T) {
	const h = "x_seconds"
	before := []map[string]float64{{h + `_bucket{le="0.001"}`: 5, h + `_bucket{le="0.01"}`: 5, h + `_bucket{le="+Inf"}`: 5}}
	after := []map[string]float64{{h + `_bucket{le="0.001"}`: 5, h + `_bucket{le="0.01"}`: 15, h + `_bucket{le="+Inf"}`: 15}}
	// Ten new observations, all in (0.001, 0.01]: the median sits halfway.
	if got := histQuantile(before, after, h, 0.5); got < 0.0054 || got > 0.0056 {
		t.Errorf("p50 = %v, want 0.0055", got)
	}
	if got := histQuantile(after, after, h, 0.5); got != 0 {
		t.Errorf("no new observations gave %v, want 0", got)
	}
	if got := grew(before, after, h+`_bucket{le="0.01"}`); got != 10 {
		t.Errorf("grew = %v, want 10", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add("call", at(0), at(100), -1, 1)
	r.add("a", at(10), at(40), root, 1)
	r.add("b", at(30), at(60), root, 1) // overlaps a: covered once
	got := map[string]layerTime{}
	for _, lt := range r.layers() {
		got[lt.Name] = lt
	}
	if got["call"].SelfMS != 50 || got["call"].TotalMS != 100 {
		t.Errorf("call self %v total %v, want 50 and 100", got["call"].SelfMS, got["call"].TotalMS)
	}
	if got["a"].SelfMS != 30 || got["b"].SelfMS != 30 {
		t.Errorf("leaf self times %v and %v, want 30 each", got["a"].SelfMS, got["b"].SelfMS)
	}
}

func TestPhasesSplitPreRoundAndIngest(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	round := func(ms int) stamped { return stamped{at(ms), parTraceEvent("greedy", "round")} }
	ps := phases(at(0), at(100), []stamped{round(50), round(60), round(70)}, "greedy.post")
	want := []string{"greedy.pre_round", "greedy.round", "greedy.round", "greedy.round", "greedy.post"}
	var names []string
	for _, p := range ps {
		names = append(names, p.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("phases %v, want %v", names, want)
	}
	if ps[0].ms() != 40 || ps[1].ms() != 10 || ps[4].ms() != 30 {
		t.Errorf("pre_round %v ms, first round %v ms, post %v ms; want 40, 10, 30", ps[0].ms(), ps[1].ms(), ps[4].ms())
	}

	read := stamped{at(20), parTraceEvent("", readPhase)}
	ps = phases(at(0), at(50), []stamped{read, {at(30), parTraceEvent("coreset", "seed")}}, "mpc.root_solve")
	if len(ps) != 3 || ps[0].name != "mpc.ingest" || ps[0].ms() != 20 || ps[1].name != "coreset.seed" || ps[1].ms() != 10 {
		t.Errorf("ingest split gave %+v", ps)
	}
}

func parTraceEvent(solver, phase string) par.TraceEvent {
	return par.TraceEvent{Solver: solver, Phase: phase}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json is not beside this directory:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s: BENCHMARK.json lists %v, the program prints %v", what, g, w)
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
