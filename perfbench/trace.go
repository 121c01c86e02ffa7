package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/par"
)

// span is one timed interval of a traced run. Spans of one operation share
// Req; Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span and returns its index, the parent handle of its
// children. A nil recorder records nothing.
func (r *recorder) add(name string, start, end time.Time, parent int, req int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
		Parent: parent, Req: req,
	})
	return len(r.spans) - 1
}

// end sets the end of a span recorded with an unknown end.
func (r *recorder) end(i int, end time.Time) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].End = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

// layerTime aggregates every span of one name: how many, their summed
// duration, and their summed self time (duration minus the part of it
// covered by child spans).
type layerTime struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

// layers returns the per-name self-time table, largest self time first.
func (r *recorder) layers() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	agg := map[string]*layerTime{}
	for i, s := range r.spans {
		var iv [][2]int64
		for _, c := range children[i] {
			iv = append(iv, [2]int64{r.spans[c].Start, r.spans[c].End})
		}
		dur := s.End - s.Start
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-covered(iv, s.Start, s.End)) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves the spans as JSON lines under dir and returns the file path.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// stamped is a solver trace event with the time the benchmark received it.
type stamped struct {
	at time.Time
	ev par.TraceEvent
}

// eventLog is the benchmark's par.Tracer: it timestamps every round,
// barrier and phase event the solvers emit.
type eventLog struct {
	mu  sync.Mutex
	evs []stamped
}

func (l *eventLog) Emit(ev par.TraceEvent) {
	now := time.Now()
	l.mu.Lock()
	l.evs = append(l.evs, stamped{at: now, ev: ev})
	l.mu.Unlock()
}

// take returns the events logged so far and empties the log.
func (l *eventLog) take() []stamped {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.evs
	l.evs = nil
	return evs
}

// readPhase marks the end of one Read of a streamed input in an eventLog.
const readPhase = "read"

// markReader logs a read mark after every Read, so the stream ingest that
// precedes a coreset phase can be split from the phase itself.
type markReader struct {
	r   io.Reader
	log *eventLog
}

func (m *markReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.log.Emit(par.TraceEvent{Phase: readPhase})
	return n, err
}

// phase is one interval of a solver call reconstructed from its events.
type phase struct {
	name       string
	start, end time.Time
}

func (p phase) ms() float64 { return float64(p.end.Sub(p.start)) / 1e6 }

// spanName maps a solver event to its layer span name; round-type events
// report round=true. Events without a duration (the mpc round summary,
// emitted in one batch at the end of a stream) map to "".
func spanName(ev par.TraceEvent) (name string, round bool) {
	switch {
	case ev.Solver == "greedy" && ev.Phase == "round":
		return "greedy.round", true
	case ev.Solver == "primal-dual" && ev.Phase == "round":
		return "primaldual.iter", true
	case ev.Solver == "coreset":
		return "coreset." + ev.Phase, false
	case ev.Solver == "exchange" && ev.Phase == "barrier":
		return "cluster.barrier", false
	}
	return "", false
}

// phases rebuilds the intervals of one call from its event timeline. Each
// event ends the phase it names, which runs from the previous boundary. A
// run of read marks before a phase becomes an "mpc.ingest" interval, and
// the time after the last event is the tail phase. The first round's start
// is not observable from its end event, so the first round is taken to last
// one median round and the time before it is "<module>.pre_round".
func phases(start, end time.Time, evs []stamped, tail string) []phase {
	var out []phase
	prev := start
	var lastRead time.Time
	ingest := func() {
		if lastRead.After(prev) {
			out = append(out, phase{"mpc.ingest", prev, lastRead})
			prev = lastRead
		}
	}
	var rounds []int
	for _, e := range evs {
		if e.ev.Phase == readPhase {
			lastRead = e.at
			continue
		}
		name, round := spanName(e.ev)
		if name == "" {
			continue
		}
		ingest()
		if round {
			rounds = append(rounds, len(out))
		}
		out = append(out, phase{name, prev, e.at})
		prev = e.at
	}
	ingest()
	out = append(out, phase{tail, prev, end})
	if len(rounds) >= 2 && rounds[0] == 0 {
		durs := make([]float64, 0, len(rounds)-1)
		for _, i := range rounds[1:] {
			durs = append(durs, float64(out[i].end.Sub(out[i].start)))
		}
		first := out[0]
		split := first.end.Add(-time.Duration(median(durs)))
		if split.After(first.start) {
			module := first.name[:strings.IndexByte(first.name, '.')]
			pre := phase{module + ".pre_round", first.start, split}
			out[0].start = split
			out = append([]phase{pre}, out...)
		}
	}
	return out
}
