package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eda-go/adifo"
	"github.com/eda-go/adifo/internal/benchdata"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/prng"
)

// grade_serve and cluster_grade: op = one grading job, from submit to
// decoded result, through adifo.NewRemoteGrader against an in-process
// LocalGrader handler (grade_serve) or adifo.NewClusterGrader over
// nproc in-process backends (cluster_grade). nproc clients run a
// closed loop over rounds of roundJobs jobs drawn from three classes;
// every result is compared with a sequential scalar fsim.Run computed
// once, before the timed set-up. Servers and coordinator run with
// their default configuration, as adifod and `adifo grade` run them.

const roundJobs = 200

// roundVariants is the number of job lists rounds cycle through. They
// differ only in the seeds of their fresh jobs: a fresh key comes back
// after roundVariants rounds, by which time more distinct keys than
// the good-machine cache holds (64) have passed, so it misses again.
const roundVariants = 2

// roundOrders is the number of job orders rounds cycle through.
const roundOrders = 16

// minJobs is the fewest jobs a grading run measures, so that at least
// ten latencies lie beyond op_p99_ms.
const minJobs = 1000

// jobClass is one part of the grading mix.
type jobClass struct {
	name     string
	circuits []string
	mode     string
	vectors  int
	weight   float64
	// fresh is the share of the class's jobs that get a pattern seed
	// of their own; the rest reuse one of poolSeeds seeds per
	// circuit, which set-up has already graded, so the server's
	// good-machine cache hits.
	fresh     float64
	poolSeeds int
}

// gradeMix is the grading traffic. The repository has no record of
// real traffic, so the weights, the fresh-seed share and the vector
// counts are assumptions; traced runs report what each class costs
// (class.* metrics), which is what the comments below rest on.
var gradeMix = []jobClass{
	// tiny: per-request overhead; the simulate phase is about 5% of
	// its op time.
	{name: "tiny", circuits: []string{"c17", "s27", "lion"}, mode: "nodrop", vectors: 256, weight: 0.55, fresh: 0.5, poolSeeds: 2},
	// drop: the scalar drop kernel, about 40% of its op time. The
	// result is not small (one ndet count per vector and one entry
	// per fault), and the Result call takes about as long.
	{name: "drop", circuits: []string{"irs420", "irs641"}, mode: "drop", vectors: 16384, weight: 0.40, fresh: 0, poolSeeds: 4},
	// dset: about 2 MB of D(f) per result; the Result call (encode,
	// transfer, decode) is about 85% of its op time.
	{name: "dset", circuits: []string{"irs641"}, mode: "nodrop", vectors: 2048, weight: 0.05, fresh: 0, poolSeeds: 2},
}

type gradeJob struct {
	class string
	spec  adifo.JobSpec
	ref   *gradeRef
}

// gradeRef is the expected result of one (circuit, mode, vectors,
// seed) job.
type gradeRef struct {
	circuit     string
	fingerprint string
	mode        string
	vectors     int
	res         *fsim.Result
	names       []string
	det         [][]int
}

// loadGradeCircuit returns the netlist the server resolves for a
// named circuit: embedded circuits directly, suite circuits from
// fixtures/ (pinned to cli.LoadNamedCircuit's output).
func loadGradeCircuit(name string) (*circuit.Circuit, error) {
	if c, err := benchdata.Load(name); err == nil {
		return c, nil
	}
	return loadFixture(name)
}

// buildJobs draws the job lists of the round variants from seed and
// computes one reference per distinct job.
func buildJobs(seed uint64) ([][]gradeJob, error) {
	type circ struct {
		fl    *fault.List
		names []string
	}
	circs := map[string]*circ{}
	refs := map[string]*gradeRef{}
	ref := func(cls jobClass, name string, s uint64) (*gradeRef, error) {
		key := fmt.Sprintf("%s/%s/%d/%d", name, cls.mode, cls.vectors, s)
		if r, ok := refs[key]; ok {
			return r, nil
		}
		ci := circs[name]
		if ci == nil {
			c, err := loadGradeCircuit(name)
			if err != nil {
				return nil, err
			}
			ci = &circ{fl: fault.CollapsedUniverse(c)}
			for _, f := range ci.fl.Faults {
				ci.names = append(ci.names, f.Name(c))
			}
			circs[name] = ci
		}
		mode, err := fsim.ParseMode(cls.mode)
		if err != nil {
			return nil, err
		}
		c := ci.fl.Circuit
		ps := logic.RandomPatterns(c.NumInputs(), cls.vectors, prng.New(s))
		r := &gradeRef{
			circuit:     c.Name,
			fingerprint: fmt.Sprintf("%016x", c.Fingerprint()),
			mode:        cls.mode,
			vectors:     cls.vectors,
			res:         fsim.Run(ci.fl, ps, fsim.Options{Mode: mode}),
			names:       ci.names,
		}
		if r.res.Det != nil {
			for _, d := range r.res.Det {
				r.det = append(r.det, d.Indices())
			}
		}
		refs[key] = r
		return r, nil
	}

	// The class, circuit and pool counts are fixed and the seed draws
	// the pattern seeds. Drawing the counts too would make the work per
	// round vary with the seed.
	rounds := make([][]gradeJob, roundVariants)
	for v := range rounds {
		jobs := make([]gradeJob, 0, roundJobs)
		for _, cls := range gradeMix {
			n := int(cls.weight*roundJobs + 0.5)
			fresh := int(cls.fresh*float64(n) + 0.5)
			for k := 0; k < n; k++ {
				name := cls.circuits[k%len(cls.circuits)]
				s := derive(seed, fmt.Sprintf("grade/pool/%s/%s/%d", cls.name, name, k/len(cls.circuits)%cls.poolSeeds))
				if k < fresh {
					s = derive(seed, fmt.Sprintf("grade/fresh/%d/%s/%d", v, cls.name, k))
				}
				r, err := ref(cls, name, s)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, gradeJob{
					class: cls.name,
					spec: adifo.JobSpec{
						Circuit:  name,
						Mode:     cls.mode,
						Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: cls.vectors, Seed: s}},
					},
					ref: r,
				})
			}
		}
		if len(jobs) != roundJobs {
			return nil, fmt.Errorf("grading mix weights give %d jobs, want %d", len(jobs), roundJobs)
		}
		rounds[v] = jobs
	}
	return rounds, nil
}

// check compares a decoded result with the reference, field by field.
func (r *gradeRef) check(res *adifo.JobResult) error {
	want := r.res
	switch {
	case res.Circuit != r.circuit || res.Fingerprint != r.fingerprint || res.Mode != r.mode:
		return fmt.Errorf("result for %s/%s/%s, want %s/%s/%s", res.Circuit, res.Fingerprint, res.Mode, r.circuit, r.fingerprint, r.mode)
	case res.Faults != want.List.Len() || res.TotalFaults != want.List.Len() || res.FaultShard != nil:
		return fmt.Errorf("%s: %d of %d faults graded, want all %d", r.circuit, res.Faults, res.TotalFaults, want.List.Len())
	case res.Vectors != r.vectors || res.VectorsUsed != want.VectorsUsed:
		return fmt.Errorf("%s: %d/%d vectors, want %d/%d", r.circuit, res.VectorsUsed, res.Vectors, want.VectorsUsed, r.vectors)
	case res.Detected != want.DetectedCount() || res.Coverage != want.Coverage():
		return fmt.Errorf("%s: %d detected (%v), want %d (%v)", r.circuit, res.Detected, res.Coverage, want.DetectedCount(), want.Coverage())
	case !slices.Equal(res.Ndet, want.Ndet):
		return fmt.Errorf("%s: ndet differs from the reference", r.circuit)
	case len(res.PerFault) != want.List.Len():
		return fmt.Errorf("%s: %d per-fault entries, want %d", r.circuit, len(res.PerFault), want.List.Len())
	}
	for i, pf := range res.PerFault {
		if pf.F != i || pf.Name != r.names[i] || pf.DetCount != want.DetCount[i] || pf.FirstDet != want.FirstDet[i] {
			return fmt.Errorf("%s: fault %d is %+v, want %s det_count %d first_det %d", r.circuit, i, pf, r.names[i], want.DetCount[i], want.FirstDet[i])
		}
		var wantDet []int
		if r.det != nil {
			wantDet = r.det[i]
		}
		if !slices.Equal(pf.Det, wantDet) {
			return fmt.Errorf("%s: D(f) of fault %d differs from the reference", r.circuit, i)
		}
	}
	return nil
}

// gradeInstance is one warmed grading deployment plus its job list.
type gradeInstance struct {
	// Round k runs rounds[k%roundVariants] in the order
	// orders[k%roundOrders]: which jobs run side by side changes from
	// round to round, so no one pairing of heavy jobs sets the tail.
	rounds  [][]gradeJob
	orders  [][]int
	next    int // index of the next round
	clients int
	grader  adifo.Grader
	// spans names the three client-visible steps of an op.
	spans [3]string

	locals  []*adifo.LocalGrader
	servers []*httptest.Server
	wires   []*serverWire
	client  *http.Transport
	onWire  atomic.Bool // client-side transport accounting
	cluster *adifo.ClusterGrader

	// traced sums the counter growth over the traced rounds.
	traced counters
}

// newBackend starts one in-process adifod: a LocalGrader behind its
// v1 handler, wrapped for wire accounting.
func (in *gradeInstance) newBackend() string {
	g := adifo.NewLocalGrader(adifo.GraderConfig{Logger: obs.Nop()})
	st := &serverWire{}
	ts := httptest.NewServer(wireHandler{next: g.Handler(), st: st})
	in.locals = append(in.locals, g)
	in.servers = append(in.servers, ts)
	in.wires = append(in.wires, st)
	return ts.URL
}

// prepareServe draws the jobs and computes their references. The timed
// set-up starts one server and warms it.
func prepareServe(seed uint64) (func() (instance, error), error) {
	jobs, err := prepareJobs(seed)
	if err != nil {
		return nil, err
	}
	return func() (instance, error) {
		in := jobs.instance()
		url := in.newBackend()
		in.grader = adifo.NewRemoteGrader(url, &http.Client{Transport: wireTransport{base: in.client, on: &in.onWire}})
		in.spans = [3]string{"client.submit", "service.run", "client.result"}
		if err := in.warm(in.grader); err != nil {
			in.close()
			return nil, err
		}
		return in, nil
	}, nil
}

// prepareCluster draws the jobs and computes their references. The
// timed set-up starts nproc backends, warms each, and starts the
// coordinator configured as `adifo grade -server a -server b` runs it.
func prepareCluster(seed uint64) (func() (instance, error), error) {
	jobs, err := prepareJobs(seed)
	if err != nil {
		return nil, err
	}
	return func() (instance, error) {
		in := jobs.instance()
		var urls []string
		for i := 0; i < in.clients; i++ {
			urls = append(urls, in.newBackend())
		}
		// Resolve the named circuits on every backend before the
		// coordinator starts placing shards.
		errs := make([]error, len(urls))
		var wg sync.WaitGroup
		for i, u := range urls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = in.warm(adifo.NewRemoteGrader(u, &http.Client{Transport: in.client}))
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			in.close()
			return nil, err
		}
		cg, err := adifo.NewClusterGrader(urls, adifo.ClusterOptions{Logger: obs.Nop()})
		if err != nil {
			in.close()
			return nil, err
		}
		in.cluster, in.grader = cg, cg
		in.spans = [3]string{"cluster.submit", "cluster.stream", "cluster.result"}
		if err := in.warm(cg); err != nil {
			in.close()
			return nil, err
		}
		return in, nil
	}, nil
}

// gradeJobs is the untimed part of a grading workload: the job lists
// with their references and the job orders.
type gradeJobs struct {
	rounds [][]gradeJob
	orders [][]int
}

func prepareJobs(seed uint64) (*gradeJobs, error) {
	rounds, err := buildJobs(seed)
	if err != nil {
		return nil, err
	}
	rng := prng.New(derive(seed, "grade/order"))
	orders := make([][]int, roundOrders)
	for i := range orders {
		orders[i] = rng.Perm(roundJobs)
	}
	return &gradeJobs{rounds: rounds, orders: orders}, nil
}

// instance returns an instance with no servers yet.
func (j *gradeJobs) instance() *gradeInstance {
	clients := runtime.NumCPU()
	return &gradeInstance{
		rounds:  j.rounds,
		orders:  j.orders,
		clients: clients,
		client:  &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
	}
}

// warm runs one job per distinct circuit and per pooled seed through
// g, so the measured loop starts with resolved circuits and the pooled
// good-machine simulations cached.
func (in *gradeInstance) warm(g adifo.Grader) error {
	uses := map[*gradeRef]int{}
	for _, jobs := range in.rounds {
		for _, j := range jobs {
			uses[j.ref]++
		}
	}
	circuits := map[string]bool{}
	warmed := map[*gradeRef]bool{}
	for _, j := range in.rounds[0] {
		if circuits[j.spec.Circuit] && (warmed[j.ref] || uses[j.ref] < 2) {
			continue
		}
		circuits[j.spec.Circuit], warmed[j.ref] = true, true
		if _, err := runJob(context.Background(), g, j, nil, 0, -1, [3]string{}); err != nil {
			return fmt.Errorf("warming %s: %w", j.spec.Circuit, err)
		}
	}
	return nil
}

// jobTiming is what one op observed.
type jobTiming struct {
	queueWait  float64       // seconds, from the result's timing
	simulate   float64       // seconds, from the result's timing
	merge      float64       // seconds, merged cluster results only
	result     time.Duration // the Result call: fetch and decode
	decode     time.Duration
	shardCount int
}

// runJob submits one job, follows its stream to the terminal state,
// fetches the result and checks it. The op's steps are recorded as
// spans under root when tr is non-nil.
func runJob(ctx context.Context, g adifo.Grader, j gradeJob, tr *tracer, op, root int, names [3]string) (jobTiming, error) {
	var jt jobTiming
	ow := &opWire{}
	ctx = withOpWire(ctx, ow)

	s := tr.start(op, root, names[0])
	id, err := g.Submit(ctx, j.spec)
	tr.end(s)
	if err != nil {
		return jt, err
	}
	s = tr.start(op, root, names[1])
	st, err := g.Stream(ctx, id, func(adifo.ProgressEvent) {})
	tr.end(s)
	if err != nil {
		return jt, err
	}
	if st.State != adifo.JobDone {
		return jt, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	s = tr.start(op, root, names[2])
	t0 := time.Now()
	res, err := g.Result(ctx, id)
	jt.result = time.Since(t0)
	tr.end(s)
	if err != nil {
		return jt, err
	}
	if !ow.resultFirstByte.IsZero() {
		jt.decode = time.Since(ow.resultFirstByte)
	}
	if res.Timing != nil {
		jt.queueWait = res.Timing.QueueWaitSeconds
		jt.simulate = res.Timing.Phases[adifo.PhaseSimulate]
		jt.merge = res.Timing.Phases[adifo.PhaseMerge]
	}
	if cg, ok := g.(*adifo.ClusterGrader); ok && tr != nil {
		if shards, err := cg.Shards(id); err == nil {
			jt.shardCount = len(shards)
		}
	}
	return jt, j.ref.check(res)
}

func (in *gradeInstance) round(ctx context.Context, tr *tracer, rec *recorder) {
	if tr != nil {
		c0 := in.counters()
		in.setWire(true)
		defer func() {
			in.setWire(false)
			in.traced = in.traced.plus(in.counters().minus(c0))
		}()
	}
	jobs, order := in.rounds[in.next%len(in.rounds)], in.orders[in.next%len(in.orders)]
	in.next++
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < in.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				op := rec.nextOp()
				root := tr.start(op, -1, "op")
				start := time.Now()
				j := jobs[order[i]]
				jt, err := runJob(ctx, in.grader, j, tr, op, root, in.spans)
				lat := time.Since(start)
				tr.end(root)
				rec.done("", lat, err)
				if tr != nil {
					rec.add("queue_wait_ms", 1000*jt.queueWait)
					rec.add("merge_ms", 1000*jt.merge)
					rec.add("decode_ms", msOf(jt.decode))
					rec.add("shards", float64(jt.shardCount))
					cls := "class/" + j.class + "/"
					rec.sample(cls+"op_ms", msOf(lat))
					rec.add(cls+"op_ms", msOf(lat))
					rec.add(cls+"simulate_ms", 1000*jt.simulate)
					rec.add(cls+"result_ms", msOf(jt.result))
				}
			}
		}()
	}
	wg.Wait()
}

// setWire switches the wire wrappers' accounting on or off. Their
// counters only grow while it is on, so they cover the traced rounds.
func (in *gradeInstance) setWire(on bool) {
	in.onWire.Store(on)
	for _, w := range in.wires {
		w.on.Store(on)
	}
}

// counters is a snapshot of the registry and coordinator counters the
// per-layer metrics use.
type counters struct {
	hits, lookups, goodHits, goodLookups float64
	stolen, speculated                   float64
}

func (a counters) plus(b counters) counters {
	return counters{a.hits + b.hits, a.lookups + b.lookups, a.goodHits + b.goodHits,
		a.goodLookups + b.goodLookups, a.stolen + b.stolen, a.speculated + b.speculated}
}

func (a counters) minus(b counters) counters {
	return a.plus(counters{-b.hits, -b.lookups, -b.goodHits, -b.goodLookups, -b.stolen, -b.speculated})
}

// counters reads the servers' registry counters (circuit, good-machine
// and compiled-form caches) and, for the cluster, scrapes the
// coordinator's work-stealing counters from its Prometheus exposition.
func (in *gradeInstance) counters() counters {
	var c counters
	for _, g := range in.locals {
		st, err := g.Stats(context.Background())
		if err != nil {
			continue
		}
		r := st.Registry
		c.hits += float64(r.CircuitHits + r.GoodHits + r.CompiledHits)
		c.lookups += float64(r.CircuitHits + r.GoodHits + r.CompiledHits + r.CircuitMisses + r.GoodMisses + r.CompiledMisses)
		c.goodHits += float64(r.GoodHits)
		c.goodLookups += float64(r.GoodHits + r.GoodMisses)
	}
	if in.cluster == nil {
		return c
	}
	rr := httptest.NewRecorder()
	in.cluster.MetricsHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "adifo_cluster_shards_stolen_total":
			c.stolen = v
		case "adifo_cluster_shards_speculated_total":
			c.speculated = v
		}
	}
	return c
}

func (in *gradeInstance) layers(rec *recorder, lt map[string]*layerTotals) map[string]float64 {
	perJob := rec.perOp
	ms := func(name string) float64 { return perJob(1000 * inclusive(lt, name)) }
	v := map[string]float64{
		"service.registry_hit_ratio": ratio(in.traced.hits, in.traced.lookups),
		"service.good_hit_ratio":     ratio(in.traced.goodHits, in.traced.goodLookups),
	}
	// Each class's share of the op time and where its time goes: the
	// server's simulate phase (the kernel) or the Result call (encode,
	// transfer, decode). A merged cluster result has no simulate phase
	// and its Result call crosses no wire, so both shares read 0 there.
	var opMS float64
	for _, cls := range gradeMix {
		opMS += rec.sum("class/" + cls.name + "/op_ms")
	}
	for _, cls := range gradeMix {
		k, name := "class/"+cls.name+"/", "class."+cls.name+"."
		lat, clsMS := rec.samples(k+"op_ms"), rec.sum(k+"op_ms")
		v[name+"op_share"] = ratio(clsMS, opMS)
		v[name+"p50_ms"] = percentile(lat, 0.50)
		v[name+"p99_ms"] = percentile(lat, 0.99)
		v[name+"simulate_share"] = ratio(rec.sum(k+"simulate_ms"), clsMS)
		v[name+"result_share"] = ratio(rec.sum(k+"result_ms"), clsMS)
	}
	var submits, bytes, lines, results, ttfb, resultBytes float64
	for _, w := range in.wires {
		submits += float64(w.submits.Load())
		bytes += float64(w.bytes.Load())
		lines += float64(w.streamLines.Load())
		results += float64(w.results.Load())
		ttfb += float64(w.ttfbNanos.Load()) / float64(time.Millisecond)
		resultBytes += float64(w.resultBytes.Load())
	}

	if in.cluster == nil {
		v["client.submit_ms"] = ms("client.submit")
		v["service.run_ms"] = ms("service.run")
		v["service.queue_wait_ms"] = perJob(rec.sum("queue_wait_ms"))
		v["client.result_decode_ms"] = perJob(rec.sum("decode_ms"))
		v["http.result_ttfb_ms"] = ratio(ttfb, results)
		v["http.result_bytes_per_job"] = perJob(resultBytes)
		v["http.stream_events_per_job"] = perJob(lines)
		return v
	}
	v["cluster.submit_ms"] = ms("cluster.submit")
	v["cluster.stream_ms"] = ms("cluster.stream")
	v["cluster.result_ms"] = ms("cluster.result")
	v["cluster.merge_ms"] = perJob(rec.sum("merge_ms"))
	v["cluster.subjobs_per_job"] = perJob(submits)
	v["cluster.backend_bytes_per_job"] = perJob(bytes)
	v["cluster.backend_events_per_job"] = perJob(lines)
	v["cluster.wasted_attempt_ratio"] = ratio(submits-rec.sum("shards"), submits)
	v["cluster.stolen_per_job"] = perJob(in.traced.stolen)
	v["cluster.speculated_per_job"] = perJob(in.traced.speculated)
	return v
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (in *gradeInstance) close() {
	var errs []error
	if in.cluster != nil {
		errs = append(errs, in.cluster.Close())
	}
	for _, ts := range in.servers {
		ts.Close()
	}
	for _, g := range in.locals {
		errs = append(errs, g.Close())
	}
	in.client.CloseIdleConnections()
	in.servers, in.locals, in.cluster = nil, nil, nil
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: closing grading deployment: %v\n", err)
	}
}
