// Command perfbench is adifo's benchmark. One invocation runs one
// workload in a closed loop for a fixed time and prints its metrics as
// a JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload paper_flow --seed 7 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it alternates untraced rounds with rounds that record
// spans around every layer call, reports the per-layer metrics of the
// traced rounds plus the tracing overhead, and writes the spans to
// .bench_build/spans/. Every op's output is checked; an op
// whose output is wrong counts as failed and makes "correct" false.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// defaultSeed is the seed at which the workloads use the experiment
// harness's own seeds, so their outputs can be pinned exactly.
const defaultSeed = 1

// A run sets its workload up at least setupReps times, and more while
// the set-ups have taken less than minSetupTotal in all (at most
// maxSetupReps); setup_s is the median. Only the last instance is
// measured.
const (
	setupReps     = 3
	minSetupTotal = 250 * time.Millisecond
	maxSetupReps  = 1000
)

// watchdogFor bounds a run, so that a hung op cannot keep the process
// alive: three times the measured time plus watchdogMargin for set-up
// and the last round, and at least minWatchdog.
const (
	minWatchdog    = 170 * time.Second
	watchdogMargin = 2 * time.Minute
)

func watchdogFor(measured time.Duration) time.Duration {
	return max(minWatchdog, 3*measured+watchdogMargin)
}

// A workload builds instances; an instance runs rounds of ops. A round
// is the workload's fixed op list, so every run does whole rounds and
// the same work per op on average, whatever the run length.
type workload struct {
	name string
	// prepare does the benchmark's own work for a seed once, untimed:
	// it draws the inputs, computes the reference outputs and checks
	// the fixtures. It returns the set-up that setup_s times, which
	// builds a fresh instance from only what a deployment pays for.
	prepare func(seed uint64) (setup func() (instance, error), err error)
	// minOps is the fewest ops an untraced run measures.
	minOps int
}

type instance interface {
	// round runs the op list once, recording into rec and, when tr
	// is non-nil, spans into tr.
	round(ctx context.Context, tr *tracer, rec *recorder)
	// layers derives the per-layer metrics of a traced pass.
	layers(rec *recorder, lt map[string]*layerTotals) map[string]float64
	close()
}

var workloads = []workload{
	{"cold_resolve", prepareCold, 0},
	{"paper_flow", preparePaper, 0},
	{"grade_serve", prepareServe, minJobs},
	{"cluster_grade", prepareCluster, minJobs},
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"alloc_mib_per_op", "MiB"},
}

// perLayer lists every per-layer metric. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = append([]metricDef{
	{"cli.resolve_s", "s"},
	{"gen.generate_s", "s"},
	{"irr.make_s", "s"},
	{"irr.iterations", "count"},
	{"irr.redundant_removed", "count"},
	{"irr.unclean", "count"},
	{"fault.collapse_s", "s"},
	{"circuit.compile_s", "s"},
	{"fsim.good_s", "s"},
	{"fsim.size_s", "s"},
	{"fsim.nodrop_s", "s"},
	{"fsim.nodrop_fault_vectors_per_s", "1/s"},
	{"adi.index_s", "s"},
	{"adi.order_s", "s"},
	{"tgen.generate_s", "s"},
	{"tgen.tests", "count"},
	{"atpg.calls", "count"},
	{"atpg.backtracks", "count"},
	{"atpg.aborted", "count"},
	{"atpg.success_ratio", "ratio"},
	{"client.submit_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.registry_hit_ratio", "ratio"},
	{"service.good_hit_ratio", "ratio"},
	{"http.result_ttfb_ms", "ms"},
	{"client.result_decode_ms", "ms"},
	{"http.result_bytes_per_job", "bytes"},
	{"http.stream_events_per_job", "count"},
	{"cluster.submit_ms", "ms"},
	{"cluster.stream_ms", "ms"},
	{"cluster.result_ms", "ms"},
	{"cluster.merge_ms", "ms"},
	{"cluster.subjobs_per_job", "count"},
	{"cluster.backend_bytes_per_job", "bytes"},
	{"cluster.backend_events_per_job", "count"},
	{"cluster.wasted_attempt_ratio", "ratio"},
	{"cluster.stolen_per_job", "count"},
	{"cluster.speculated_per_job", "count"},
	{"process.peak_rss_mib", "MiB"},
	{"trace.layer_share", "ratio"},
	{"trace.ops_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}, classMetrics()...)

// classMetrics names the per-class metrics of the grading mix: each
// class's share of the op time, its latency percentiles, and the
// shares of its op time spent in the servers' simulate phase and in
// the Result call.
func classMetrics() []metricDef {
	var out []metricDef
	for _, c := range gradeMix {
		for _, m := range []metricDef{{"op_share", "ratio"}, {"p50_ms", "ms"}, {"p99_ms", "ms"}, {"simulate_share", "ratio"}, {"result_share", "ratio"}} {
			out = append(out, metricDef{"class." + c.name + "." + m.name, m.unit})
		}
	}
	return out
}

// recorder collects the outcome of every op of a pass. Workloads with
// concurrent clients share one recorder.
type recorder struct {
	ops       atomic.Int64 // op ids handed out
	mu        sync.Mutex
	latMS     []float64
	opKey     []string // what each op ran, "" for the grading jobs
	attempted int
	failed    int
	firstErr  error
	sums      map[string]float64
	lists     map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{sums: map[string]float64{}, lists: map[string][]float64{}}
}

// nextOp returns a fresh op id for span attribution.
func (r *recorder) nextOp() int { return int(r.ops.Add(1)) }

// done records one op: what it ran (key), its latency and, when err
// is non-nil, its failure (a wrong output or an error the caller saw).
func (r *recorder) done(key string, lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.latMS = append(r.latMS, float64(lat)/float64(time.Millisecond))
	r.opKey = append(r.opKey, key)
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// add accumulates a per-layer count or duration under name.
func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.sums[name] += v
	r.mu.Unlock()
}

// sample appends v to the values recorded under name.
func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	r.lists[name] = append(r.lists[name], v)
	r.mu.Unlock()
}

// samples returns the values recorded under name.
func (r *recorder) samples(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.lists[name])
}

// sum returns the accumulated value of name.
func (r *recorder) sum(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sums[name]
}

// perOp divides v by the number of ops attempted.
func (r *recorder) perOp(v float64) float64 { return ratio(v, float64(r.attempted)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeRound runs one round of inst and returns its duration and the
// number of ops it ran.
func timeRound(ctx context.Context, inst instance, tr *tracer, rec *recorder) (time.Duration, int) {
	before := rec.attempted
	start := time.Now()
	inst.round(ctx, tr, rec)
	d := time.Since(start)
	n := rec.attempted - before
	lat := rec.latMS[len(rec.latMS)-n:]
	fmt.Fprintf(os.Stderr, "perfbench: round of %d ops in %.3fs (traced %v), p50 %.3fms, p99 %.3fms\n",
		n, d.Seconds(), tr != nil, percentile(lat, 0.5), percentile(lat, 0.99))
	return d, n
}

// opsPerSecond is the throughput of a recorder's ops over elapsed.
func opsPerSecond(rec *recorder, elapsed time.Duration) float64 {
	return float64(rec.attempted) / elapsed.Seconds()
}

// latencies returns the op latencies percentiles are taken over. The
// fixed-mix workloads key their ops by circuit and run each circuit
// several times per run; an op there is represented by the median
// latency of its circuit, so a burst of contention from outside the
// process that slows one repeat does not decide the percentile.
func (r *recorder) latencies() []float64 {
	byKey := map[string][]float64{}
	for i, k := range r.opKey {
		if k == "" {
			return r.latMS
		}
		byKey[k] = append(byKey[k], r.latMS[i])
	}
	var out []float64
	for _, xs := range byKey {
		m := median(xs)
		for range xs {
			out = append(out, m)
		}
	}
	return out
}

// percentile returns the q-quantile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// derive maps the workload seed and a purpose label to an independent
// 64-bit seed.
func derive(seed uint64, label string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	x := h.Sum64()
	// splitmix64 finalizer: spread FNV's weak low bits.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// provenance describes the build and host the result was measured on.
func provenance(wl string, seed uint64, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value + commit[len("unknown"):]
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	cache := "warmed in setup"
	if wl == "cold_resolve" {
		cache = "cold: every op resolves from scratch"
	}
	return map[string]any{
		"workload":   wl,
		"seed":       seed,
		"traced":     traced,
		"commit":     commit,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cache":      cache,
		"accuracy":   "none against the paper: the suite is synthetic; outputs are checked against in-repo references",
	}
}

// measure runs untraced rounds until d has passed and minOps ops have
// run, and returns the end-to-end metrics other than setup_s.
func measure(ctx context.Context, inst instance, d time.Duration, minOps int) (map[string]float64, *recorder) {
	rec := newRecorder()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var elapsed time.Duration
	var rates []float64
	for elapsed < d || rec.attempted < minOps {
		rd, n := timeRound(ctx, inst, nil, rec)
		elapsed += rd
		rates = append(rates, float64(n)/rd.Seconds())
	}
	runtime.ReadMemStats(&m1)
	lat := rec.latencies()
	return map[string]float64{
		// The median of the rounds' throughputs: a burst of
		// contention from outside the process that slows one round
		// moves it less than it moves the mean.
		"ops_per_s":        median(rates),
		"op_p50_ms":        percentile(lat, 0.50),
		"op_p99_ms":        percentile(lat, 0.99),
		"alloc_mib_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(rec.attempted),
	}, rec
}

// measureTraced alternates untraced rounds with rounds traced into tr
// until each side has run d/2, so drift during the run shows in
// neither side of the overhead alone. It returns the per-layer metrics
// of the traced rounds and both sides' recorders.
func measureTraced(ctx context.Context, inst instance, tr *tracer, d time.Duration) (map[string]float64, *recorder, *recorder) {
	plain, tp := newRecorder(), newRecorder()
	var plainT, tracedT time.Duration
	for plainT < d/2 || tracedT < d/2 {
		rd, _ := timeRound(ctx, inst, nil, plain)
		plainT += rd
		rd, _ = timeRound(ctx, inst, tr, tp)
		tracedT += rd
	}
	lt := tr.totals()
	v := inst.layers(tp, lt)
	if op := lt["op"]; op != nil && op.Inclusive > 0 {
		v["trace.layer_share"] = 1 - op.Self/op.Inclusive
	}
	v["process.peak_rss_mib"] = peakRSSMiB()
	v["trace.ops_per_s"] = opsPerSecond(tp, tracedT)
	v["trace.overhead_pct"] = 100 * (1 - opsPerSecond(tp, tracedT)/opsPerSecond(plain, plainT))
	return v, plain, tp
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	wlName := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *wlName {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wlName)
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	time.AfterFunc(watchdogFor(d), func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog expired")
		os.Exit(3)
	})
	traced := *traceFlag == 1
	ctx := context.Background()

	setup, err := wl.prepare(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: preparing inputs: %v\n", wl.name, err)
		os.Exit(1)
	}
	var setupS []float64
	var inst instance
	for i := 0; i < setupReps || (sum(setupS) < minSetupTotal.Seconds() && i < maxSetupReps); i++ {
		t0 := time.Now()
		in, err := setup()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", wl.name, err)
			os.Exit(1)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if inst != nil {
			inst.close()
		}
		inst = in
	}
	defer inst.close()

	metrics := map[string]metricOut{}
	var recs []*recorder
	if !traced {
		v, rec := measure(ctx, inst, d, wl.minOps)
		v["setup_s"] = median(setupS)
		for _, m := range endToEnd {
			metrics[m.name] = metricOut{v[m.name], m.unit}
		}
		recs = append(recs, rec)
	} else {
		tr := newTracer()
		v, plain, tp := measureTraced(ctx, inst, tr, d)
		for _, m := range perLayer {
			metrics[m.name] = metricOut{v[m.name], m.unit}
		}
		recs = append(recs, plain, tp)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", wl.name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
		}
	}

	attempted, failed := 0, 0
	for _, r := range recs {
		attempted += r.attempted
		failed += r.failed
		if r.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: first failed op: %v\n", wl.name, r.firstErr)
		}
	}
	prov, _ := json.Marshal(provenance(wl.name, *seed, traced))
	fmt.Printf("provenance %s\n", prov)
	out, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	fmt.Println(string(out))
	if failed > 0 {
		inst.close()
		os.Exit(4)
	}
}
