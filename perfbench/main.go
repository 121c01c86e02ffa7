// Command perfbench is the repository's benchmark. It runs one workload —
// kernels, serve-open or cluster-pd-dist — from a seed, checks every answer,
// and prints the workload's metrics by name. The last line of its output is
// one JSON object: the end-to-end metrics of an untraced run (--trace 0), or
// the per-layer metrics of a traced run (--trace 1).
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// procStart is as close to process start as the program can observe; the
// first set-up repetition is timed from it.
var procStart = time.Now()

// setupReps is how many times an untraced run sets its workload up; it
// reports the median and measures on the last one.
const setupReps = 3

// named is a percentile of a class that the workload reports by name.
type named struct {
	label string
	p     float64
}

// class is one kind of timed operation and the latencies it took.
type class struct {
	named []named
	ms    []float64
	ref   []float64 // refLoopMS just before each call (kernels only)
}

func newClass(named ...named) *class { return &class{named: named} }

func (c *class) p50() float64 { return median(c.ms) }

// add records one call and the reference time taken just before it.
func (c *class) add(ms, ref float64) {
	c.ms = append(c.ms, ms)
	c.ref = append(c.ref, ref)
}

// gatedP50 is the class median latency_p50_ms is built from.
func (c *class) gatedP50() float64 { return rescaledMedian(c.ms, c.ref) }

// rescaledMedian is the median of xs, each rescaled to a host on which
// refLoopMS reads refNominalMS by the reading refs holds for it; with no
// readings, the plain median.
func rescaledMedian(xs, refs []float64) float64 {
	if len(refs) == 0 {
		return median(xs)
	}
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = xs[i] * math.Pow(refNominalMS/refs[i], refExponent)
	}
	return median(ys)
}

// outcome is what one pass of a workload measured.
type outcome struct {
	classes   []*class
	setupS    []float64 // one entry per set-up repetition
	setupRef  []float64 // refLoopMS after each repetition (kernels, serve-open)
	attempted int
	failed    int
	wrong     []string // answer checks that failed
	rssMB     float64
	layers    map[string]float64 // per-layer metrics (traced passes)
	notes     []string           // bases of ratios, caveats, warnings
	rec       *recorder          // spans (traced passes)
}

func (o *outcome) checkf(format string, args ...any) {
	o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// p50Geo is the geometric mean of the class medians: every op class
// weighs the same, whatever its absolute latency.
func (o *outcome) p50Geo(p50 func(*class) float64) float64 {
	var xs []float64
	for _, c := range o.classes {
		xs = append(xs, p50(c))
	}
	return geomean(xs)
}

// pass describes one measured pass of a workload.
type pass struct {
	seed    int64
	seconds float64
	traced  bool
	reps    int // set-up repetitions
}

type workload struct {
	name string
	why  string
	run  func(p pass) (*outcome, error)
}

var workloads = []workload{
	{"kernels", "the kernel modules do almost all the work; serve, the core codec and cluster do none", runKernels},
	{"serve-open", "open-loop serve mix: misses write beside cache hits and queries on one server", runServeOpen},
	{"cluster-pd-dist", "three-shard pd-dist over loopback HTTP: exchange, forwarding and replication dominate", runCluster},
}

// endToEnd are the metrics of an untraced run, as BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

func main() {
	name := flag.String("workload", "", "workload: kernels, serve-open or cluster-pd-dist")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 30, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := checkLoadShape(maxWorkers, maxWorkers, runtime.NumCPU()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n", w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	fmt.Printf("why: %s\n", w.why)
	var code int
	if *trace == 0 {
		code = untraced(w, *seed, *seconds)
	} else {
		code = traced(w, *seed, *seconds)
	}
	os.Exit(code)
}

// untraced measures the end-to-end metrics.
func untraced(w *workload, seed int64, seconds float64) int {
	o, err := w.run(pass{seed: seed, seconds: seconds, reps: setupReps})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printEndToEnd(o)
	metrics := map[string]metricValue{
		"setup_s":        {rescaledMedian(o.setupS, o.setupRef), "s"},
		"latency_p50_ms": {o.p50Geo((*class).gatedP50), "ms"},
		"peak_rss_mb":    {o.rssMB, "MB"},
	}
	return finish(o, metrics)
}

// traced runs the workload twice on the same seed, half the window each:
// untraced, then with every instrument on. The per-layer metrics come from
// the second pass; the gap between the two is the tracing overhead.
func traced(w *workload, seed int64, seconds float64) int {
	base, err := w.run(pass{seed: seed, seconds: seconds / 2, reps: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o, err := w.run(pass{seed: seed, seconds: seconds / 2, traced: true, reps: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.wrong = append(base.wrong, o.wrong...)
	o.attempted += base.attempted
	o.failed += base.failed
	b, t := base.p50Geo((*class).gatedP50), o.p50Geo((*class).gatedP50)
	o.layers["obs.trace_overhead_pct"] = 100 * (t - b) / b
	o.notef("obs.trace_overhead_pct: latency_p50_ms traced %.4g ms vs untraced %.4g ms on the same seed", t, b)

	fmt.Println("self time by layer (span time minus time covered by child spans):")
	fmt.Printf("  %-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range o.rec.layers() {
		fmt.Printf("  %-34s %8d %12.3f %12.3f\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
	}
	path, err := o.rec.write(filepath.Join(".bench_build", "traces"), fmt.Sprintf("%s-%d.jsonl", w.name, seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return 1
	}
	fmt.Printf("spans: %s\n", path)

	fmt.Println("per-layer metrics:")
	metrics := map[string]metricValue{}
	for _, m := range perLayer {
		v, ok := o.layers[m.name]
		mark := ""
		if !ok {
			mark = "  (layer not run by this workload)"
		}
		metrics[m.name] = metricValue{v, m.unit}
		fmt.Printf("  %-34s %14.6g %-6s%s\n", m.name, v, m.unit, mark)
	}
	return finish(o, metrics)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the notes, failed checks and the result line, and returns
// the exit code: non-zero when any answer was wrong.
func finish(o *outcome, metrics map[string]metricValue) int {
	for _, n := range o.notes {
		fmt.Println("note:", n)
	}
	const shown = 20
	for _, wr := range o.wrong[:min(shown, len(o.wrong))] {
		fmt.Println("WRONG:", wr)
	}
	if len(o.wrong) > shown {
		fmt.Printf("WRONG: ... and %d more\n", len(o.wrong)-shown)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(o.wrong) == 0, o.attempted, o.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(o.wrong) > 0 {
		return 1
	}
	return 0
}

// printEndToEnd prints every end-to-end figure the workload names, with its
// sample count, and the aggregates that BENCHMARK.json tracks.
func printEndToEnd(o *outcome) {
	fmt.Println("end-to-end:")
	for _, c := range o.classes {
		for _, nm := range c.named {
			flag := ""
			if b := beyond(nm.p, len(c.ms)); nm.p > 50 && b < minBeyond {
				flag = fmt.Sprintf("  (only %d samples beyond this tail)", b)
			}
			fmt.Printf("  %-22s %12.4f ms  p%-4g n=%d%s\n", nm.label, percentile(c.ms, nm.p), nm.p, len(c.ms), flag)
		}
	}
	fmt.Printf("  %-22s %s\n", "failed_frac", ratio{float64(o.failed), float64(o.attempted)}.describe("failed", "attempted"))
	fmt.Printf("  %-22s %12.4f MB\n", "peak_rss_mb", o.rssMB)
	setups := make([]string, len(o.setupS))
	for i, s := range o.setupS {
		setups[i] = fmt.Sprintf("%.3f", s)
	}
	if len(o.setupRef) == 0 {
		fmt.Printf("  %-22s %12.4f s   median of [%s]\n", "setup_s", median(o.setupS), strings.Join(setups, " "))
	} else {
		fmt.Printf("  %-22s %12.4f s   median of [%s] rescaled to reference speed (raw %.4f s)\n", "setup_s", rescaledMedian(o.setupS, o.setupRef), strings.Join(setups, " "), median(o.setupS))
	}
	if raw, gated := o.p50Geo((*class).p50), o.p50Geo((*class).gatedP50); raw == gated {
		fmt.Printf("  %-22s %12.4f ms  geometric mean of the class medians\n", "latency_p50_ms", gated)
	} else {
		fmt.Printf("  %-22s %12.4f ms  geometric mean of the class medians rescaled to reference speed (raw %.4f ms)\n", "latency_p50_ms", gated, raw)
	}
	fmt.Println("highest percentile of each class with at least ten samples beyond it:")
	for _, c := range o.classes {
		stem := strings.TrimSuffix(c.named[0].label, "_p50")
		p, ok := tailPercentile(len(c.ms))
		if !ok {
			fmt.Printf("  %-22s none: %d samples\n", stem, len(c.ms))
			continue
		}
		fmt.Printf("  %-22s p%-4g %12.4f ms  %d of %d samples beyond\n", stem, p, percentile(c.ms, p), beyond(p, len(c.ms)), len(c.ms))
	}
}
