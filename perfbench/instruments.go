package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// perLayer are the metrics of a traced run, as BENCHMARK.json lists them.
// A workload that does not run a layer reports it as 0 and says so.
var perLayer = []struct{ name, unit string }{
	{"metric.presort_ms", "ms"},
	{"metric.dist_build_ms", "ms"},
	{"greedy.rounds", "count"},
	{"greedy.round_ms_p50", "ms"},
	{"greedy.pre_round_ms", "ms"},
	{"greedy.work", "count"},
	{"greedy.span", "count"},
	{"primaldual.iters", "count"},
	{"primaldual.iter_ms_p50", "ms"},
	{"primaldual.pre_round_ms", "ms"},
	{"primaldual.work", "count"},
	{"primaldual.span", "count"},
	{"par.cpu_util", "ratio"},
	{"lp.solve_ms", "ms"},
	{"rounding.round_ms", "ms"},
	{"coreset.cover_ms", "ms"},
	{"coreset.seed_ms", "ms"},
	{"coreset.sample_ms", "ms"},
	{"mpc.rounds", "count"},
	{"mpc.chunks", "count"},
	{"mpc.merge_bytes", "bytes"},
	{"mpc.peak_bytes", "bytes"},
	{"core.decode_ms_p50", "ms"},
	{"core.hash_ms_p50", "ms"},
	{"serve.handler_ms_p50.miss", "ms"},
	{"serve.handler_ms_p50.hit", "ms"},
	{"serve.handler_ms_p50.query", "ms"},
	{"serve.handler_ms_p50.bulk", "ms"},
	{"serve.outside_ms_p50.miss", "ms"},
	{"serve.outside_ms_p50.hit", "ms"},
	{"serve.outside_ms_p50.query", "ms"},
	{"serve.outside_ms_p50.bulk", "ms"},
	{"serve.solve_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.queue_depth_max", "count"},
	{"serve.rejected", "count"},
	{"cluster.overhead_ms_p50", "ms"},
	{"cluster.barriers", "count"},
	{"cluster.barrier_bytes", "bytes"},
	{"cluster.frames_per_barrier", "ratio"},
	{"cluster.frame_rtt_ms_p50", "ms"},
	{"cluster.frame_handler_ms_p50", "ms"},
	{"cluster.replicated", "count"},
	{"cluster.forwarded", "count"},
	{"resilience.peer_retries", "count"},
	{"resilience.breaker_transitions", "count"},
	{"load.late_ms_p99", "ms"},
	{"load.conns", "count"},
	{"obs.trace_overhead_pct", "%"},
}

// opHeader carries the benchmark's op id on traced requests, so the
// handler wrapper can tie the server's time to the client's.
const opHeader = "X-Perfbench-Op"

// handled is one request as the handler wrapper saw it.
type handled struct {
	op         int64 // the op it served; -1 when unknown
	path       string
	start, end time.Time
}

// handlerLog wraps servers' handlers and records the time each request
// spends inside them. Requests without an op header (peer traffic) are
// charged to cur, the op a closed loop has in flight, when cur is set.
type handlerLog struct {
	cur  *atomic.Int64
	mu   sync.Mutex
	recs []handled
}

func (l *handlerLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		op := int64(-1)
		if v := r.Header.Get(opHeader); v != "" {
			op, _ = strconv.ParseInt(v, 10, 64)
		} else if l.cur != nil {
			op = l.cur.Load()
		}
		l.mu.Lock()
		l.recs = append(l.recs, handled{op: op, path: r.URL.Path, start: start, end: end})
		l.mu.Unlock()
	})
}

func (l *handlerLog) all() []handled {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]handled(nil), l.recs...)
}

// scrape reads a server's /metrics page through its handler, in process.
func scrape(h http.Handler) (map[string]float64, error) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return obs.ParseExposition(rr.Body.Bytes())
}

// debugSolves reads a server's /debug/solves flight recorder in process.
func debugSolves(h http.Handler) ([]obs.SolveTrace, error) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/solves", nil))
	var ts []obs.SolveTrace
	err := json.Unmarshal(rr.Body.Bytes(), &ts)
	return ts, err
}

// family sums every series of the metric family name across scrapes.
func family(ms []map[string]float64, name string) float64 {
	s := 0.0
	for _, m := range ms {
		for k, v := range m {
			if k == name || strings.HasPrefix(k, name+"{") {
				s += v
			}
		}
	}
	return s
}

// grew is family(after) - family(before).
func grew(before, after []map[string]float64, name string) float64 {
	return family(after, name) - family(before, name)
}

// histQuantile estimates the q-quantile of what a histogram family observed
// between two sets of scrapes, interpolating linearly inside the bucket.
func histQuantile(before, after []map[string]float64, name string, q float64) float64 {
	counts := map[float64]float64{}
	for i := range after {
		for k, v := range after[i] {
			le, ok := bucketLE(k, name)
			if !ok {
				continue
			}
			counts[le] += v
			if i < len(before) {
				counts[le] -= before[i][k]
			}
		}
	}
	les := make([]float64, 0, len(counts))
	for le := range counts {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || counts[les[len(les)-1]] == 0 {
		return 0
	}
	want := q * counts[les[len(les)-1]]
	lo, below := 0.0, 0.0
	for _, le := range les {
		if c := counts[le]; c >= want {
			if math.IsInf(le, 1) {
				return lo
			}
			return lo + (le-lo)*(want-below)/(c-below)
		} else {
			lo, below = le, c
		}
	}
	return lo
}

func bucketLE(key, name string) (float64, bool) {
	prefix := name + `_bucket{le="`
	if !strings.HasPrefix(key, prefix) {
		return 0, false
	}
	v := strings.TrimSuffix(key[len(prefix):], `"}`)
	if v == "+Inf" {
		return math.Inf(1), true
	}
	le, err := strconv.ParseFloat(v, 64)
	return le, err == nil
}

// shard is one serve.Server behind a real loopback listener.
type shard struct {
	srv  *serve.Server
	hs   *http.Server
	ln   net.Listener
	url  string
	done chan struct{}
}

// listen opens the loopback listener a shard will serve on, so its URL is
// known before the cluster ring is built.
func listen() (*shard, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &shard{ln: ln, url: "http://" + ln.Addr().String()}, nil
}

// start serves srv's handler, wrapped by wrap when it is not nil.
func (s *shard) start(srv *serve.Server, wrap func(http.Handler) http.Handler) {
	s.srv = srv
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		if err := s.hs.Serve(s.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			os.Stderr.WriteString("perfbench: serve: " + err.Error() + "\n")
		}
	}()
}

// stop shuts the listener and the server down and waits for both.
func (s *shard) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.hs == nil {
		s.ln.Close()
		return
	}
	_ = s.hs.Shutdown(ctx)
	<-s.done
	if s.srv != nil {
		_ = s.srv.Shutdown(ctx)
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so the
// peak covers the timed window rather than set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range bytes.Split(b, []byte("\n")) {
			if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
