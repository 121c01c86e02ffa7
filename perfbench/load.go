package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxWorkers is the most request-issuing goroutines, and the most client
// connections, any workload uses. The load is sized for a two-CPU machine.
const maxWorkers = 2

// checkLoadShape refuses a generator that would issue requests from more
// goroutines, or over more connections, than the machine has CPUs: the
// generator would then compete with the server it measures.
func checkLoadShape(workers, conns, nproc int) error {
	if workers > nproc || conns > nproc {
		return fmt.Errorf("load shape: %d request goroutines and %d connections exceed nproc=%d", workers, conns, nproc)
	}
	return nil
}

// connCounter counts the client connections a workload dials and the most
// that were open at once.
type connCounter struct {
	open, peak, dials atomic.Int64
}

func (cc *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{Timeout: 2 * time.Second}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	cc.dials.Add(1)
	n := cc.open.Add(1)
	for {
		p := cc.peak.Load()
		if n <= p || cc.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return &countedConn{Conn: c, cc: cc}, nil
}

type countedConn struct {
	net.Conn
	cc   *connCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.cc.open.Add(-1) })
	return c.Conn.Close()
}

// newClient returns an HTTP client that opens at most conns connections per
// host, all counted by cc. Without keepAlive every request dials afresh,
// so one worker holds one connection at a time whatever host it calls.
func newClient(conns int, keepAlive bool, cc *connCounter) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         cc.dial,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableKeepAlives:   !keepAlive,
		DisableCompression:  true,
	}}
}

// reply is one HTTP exchange, read to its last byte.
type reply struct {
	status int
	body   []byte
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

func send(cl *http.Client, req *http.Request) reply {
	resp, err := cl.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: body, err: err}
}

// op is one scheduled request of an open-loop run.
type op struct {
	at   time.Duration // intended send time, from the window start
	kind int           // index into the workload's mix
	arg  int64         // seeded parameter: which entry, client or point
}

// schedule lays out an open-loop run: requests at a constant rate for the
// window, each of a kind drawn from mix (shares summing to 1) with a seeded
// parameter. The same seed gives the same schedule.
func schedule(seed int64, rate, seconds float64, mix []float64) []op {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * seconds)
	ops := make([]op, n)
	for k := range ops {
		u, kind := rng.Float64(), len(mix)-1
		for i, acc := 0, 0.0; i < len(mix); i++ {
			acc += mix[i]
			if u < acc {
				kind = i
				break
			}
		}
		ops[k] = op{at: time.Duration(float64(k) / rate * float64(time.Second)), kind: kind, arg: rng.Int63()}
	}
	return ops
}

// sent is one request of an open-loop run: when it was due, when a worker
// sent it, and when its last byte arrived.
type sent struct {
	due, start, done time.Time
	reply
}

func (s sent) latencyMS() float64 { return float64(s.done.Sub(s.due)) / 1e6 }
func (s sent) lateMS() float64    { return float64(s.start.Sub(s.due)) / 1e6 }

// openLoop sends every op at its due time from t0 using workers
// goroutines. A worker busy past an op's due time sends it late, and the
// op's latency still counts from when it was due, so a stall is charged to
// every request queued behind it.
func openLoop(ops []op, workers int, t0 time.Time, do func(k int, o op) reply) []sent {
	out := make([]sent, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pinPreciseSleep()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ops) {
					return
				}
				due := t0.Add(ops[k].at)
				sleepUntil(due)
				start := time.Now()
				r := do(k, ops[k])
				out[k] = sent{due: due, start: start, done: time.Now(), reply: r}
			}
		}()
	}
	wg.Wait()
	return out
}
