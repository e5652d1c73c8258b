package main

// The serve-fabric workload: a closed loop of nproc clients posting
// synchronous sampled A/B jobs to an in-process lfservd front whose Remote
// is a fabric.Coordinator over two stock in-process workers. It is the only
// path through admission, lint preflight, compile, the run-cache (hits
// beside misses), fabric routing and the sampled tier. The detailed core
// runs only as short windows seeded from checkpoints, and the LoopFrog
// engine rarely wins on these kernels, so engine work should read flat here.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"loopfrog/internal/compiler"
	"loopfrog/internal/fabric"
	"loopfrog/internal/serve"
	"loopfrog/internal/tune"
	"loopfrog/internal/workloads"
)

// serveKernels are the small-loop kernels whose variants the traffic draws.
var serveKernels = []string{"leela", "deepsjeng", "namd", "xz"}

// The traffic comes in blocks of blockNew never-seen variants and
// blockRepeat repeats of already-submitted specs, at seeded positions: a
// third of the jobs are repeats. Each block holds the same number of new
// variants and of repeats per kernel, so the kernel and hit/miss mix, and
// with it the cost of a block, is the same at every seed; the seed draws the
// order, the variants and which earlier spec each repeat repeats.
const (
	blockNew    = 8
	blockRepeat = 4
	fabricNodes = 2
)

// jobSample is the sampling shape of every job: the tuner's cheapest tier,
// the shape its fabric fan-out serves most.
var jobSample = *tune.Tiers()[0].Sample

// variant is one point of a kernel's variant space: the tuner's knobs plus
// the threadlet count.
type variant struct {
	Deselect     bool `json:"deselect"`
	PackFactor   int  `json:"pack_factor"`
	GranuleBytes int  `json:"granule_bytes"`
	PackTarget   int  `json:"pack_target"`
	Threadlets   int  `json:"threadlets"`
}

// packTargets are the pack_target values the traffic draws: the default (0)
// and every multiple of 8 from 32 to 1016. The default target is the ROB
// size, 1024, so no drawn value renders the default's configuration under
// another name, and every variant has a run-cache fingerprint of its own.
func packTargets() []int {
	pts := []int{0}
	for pt := 32; pt < 1024; pt += 8 {
		pts = append(pts, pt)
	}
	return pts
}

// variantSpace is a kernel's variant space: 4500 variants, so a run cannot
// use it up (at blockNew/len(serveKernels) per kernel and block, 27000 jobs).
func variantSpace() []variant {
	var vs []variant
	for _, d := range []bool{false, true} {
		for _, pf := range []int{32, 4, 1} {
			for _, g := range []int{4, 8} {
				for _, pt := range packTargets() {
					for _, t := range []int{2, 3, 4} {
						vs = append(vs, variant{Deselect: d, PackFactor: pf, GranuleBytes: g, PackTarget: pt, Threadlets: t})
					}
				}
			}
		}
	}
	return vs
}

// trafficItem is one request of the seeded job sequence.
type trafficItem struct {
	Index   int     `json:"index"`
	Repeat  bool    `json:"repeat"`
	First   int     `json:"first"` // index of the spec's first submission
	Kernel  string  `json:"kernel"`
	Variant variant `json:"variant"`
}

// trafficSequence returns the job sequence for seed, drawn from seed
// alone. It ends when the kernels' variant spaces are used up, far beyond
// what a run can serve.
func trafficSequence(seed int64) []trafficItem {
	rng := rand.New(rand.NewSource(seed))
	space := variantSpace()
	pools := make(map[string][]variant)
	for _, k := range serveKernels {
		perm := rng.Perm(len(space))
		for _, i := range perm {
			pools[k] = append(pools[k], space[i])
		}
	}
	newPer, repPer := blockNew/len(serveKernels), blockRepeat/len(serveKernels)
	var seq []trafficItem
	firsts := make(map[string][]int) // kernel -> indexes of its new jobs
	for len(pools[serveKernels[0]]) >= newPer {
		type slot struct {
			kernel string
			repeat bool
		}
		var slots []slot
		for _, k := range serveKernels {
			for range newPer {
				slots = append(slots, slot{k, false})
			}
			for range repPer {
				slots = append(slots, slot{k, true})
			}
		}
		rng.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
		// A repeat needs an earlier new job of its kernel: move it behind
		// the first one in the block when there is none yet.
		for i := 0; i < len(slots); i++ {
			sl := slots[i]
			if !sl.repeat || len(firsts[sl.kernel]) > 0 {
				it := trafficItem{Index: len(seq), Kernel: sl.kernel}
				if sl.repeat {
					fs := firsts[sl.kernel]
					first := seq[fs[rng.Intn(len(fs))]]
					it.Repeat, it.First, it.Variant = true, first.Index, first.Variant
				} else {
					it.First, it.Variant = it.Index, pools[sl.kernel][0]
					pools[sl.kernel] = pools[sl.kernel][1:]
					firsts[sl.kernel] = append(firsts[sl.kernel], it.Index)
				}
				seq = append(seq, it)
				continue
			}
			j := i + 1
			for slots[j].kernel != sl.kernel || slots[j].repeat {
				j++
			}
			slots[i], slots[j] = slots[j], slots[i]
			i--
		}
	}
	return seq
}

// kernelSource is a serve kernel's LoopLang source and the line of its
// @loopfrog loop (what a deselect mask names).
type kernelSource struct {
	src  string
	line int
}

func serveSources() (map[string]kernelSource, error) {
	out := make(map[string]kernelSource)
	for _, n := range serveKernels {
		b := workloads.ByName(workloads.CPU2017(), n)
		if b == nil {
			return nil, fmt.Errorf("unknown kernel %q", n)
		}
		loops, err := compiler.Loops(b.Source())
		if err != nil || len(loops) == 0 {
			return nil, fmt.Errorf("%s: no @loopfrog loop to vary (%v)", n, err)
		}
		out[n] = kernelSource{src: b.Source(), line: loops[0].Line}
	}
	return out, nil
}

// jobSpec renders an item as the request body's spec. Repeats render
// exactly the spec of their first submission; the name carries the seed.
func (it trafficItem) jobSpec(seed int64, srcs map[string]kernelSource) serve.JobSpec {
	k := srcs[it.Kernel]
	spec := serve.JobSpec{
		Name:           fmt.Sprintf("perfbench-s%d-%s-%d", seed, it.Kernel, it.First),
		Source:         k.src,
		AB:             true,
		Sampled:        true,
		SampleInterval: jobSample.Interval,
		SampleWindow:   jobSample.Window,
		SampleWarmup:   jobSample.Warmup,
		Threadlets:     it.Variant.Threadlets,
		PackFactor:     it.Variant.PackFactor,
		GranuleBytes:   it.Variant.GranuleBytes,
		PackTarget:     it.Variant.PackTarget,
	}
	if it.Variant.Deselect {
		spec.Deselect = []int{k.line}
	}
	return spec
}

// node is one in-process HTTP server.
type node struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(srv *serve.Server, h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return n, nil
}

// shutdown drains the daemon, then stops its listener and waits for it.
func (n *node) shutdown(ctx context.Context) error {
	err := n.srv.Shutdown(ctx)
	if herr := n.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	<-n.done
	return err
}

// rig is a fabric: stock workers, a coordinator over them, and a front
// daemon whose Remote is the coordinator. Everything uses production
// defaults.
type rig struct {
	workers []*node
	coord   *fabric.Coordinator
	front   *node
	client  *http.Client
}

func startRig() (*rig, error) {
	r := &rig{client: &http.Client{Timeout: 2 * time.Minute}}
	for i := 0; i < fabricNodes; i++ {
		srv := serve.New(serve.Config{})
		n, err := listen(srv, srv.Handler())
		if err != nil {
			r.close()
			return nil, err
		}
		r.workers = append(r.workers, n)
	}
	r.coord = fabric.NewCoordinator(fabric.Config{Logf: func(string, ...any) {}})
	for i, w := range r.workers {
		if err := r.coord.AddWorker(fabric.JoinInfo{ID: fmt.Sprintf("w%d", i), URL: w.url}); err != nil {
			r.close()
			return nil, err
		}
	}
	front := serve.New(serve.Config{Remote: r.coord})
	n, err := listen(front, r.coord.Mount(front.Handler()))
	if err != nil {
		r.close()
		return nil, err
	}
	r.front = n
	// Alive: every daemon answers readiness and the coordinator counts every
	// worker live.
	for _, n := range append([]*node{r.front}, r.workers...) {
		resp, err := r.client.Get(n.url + "/readyz")
		if err != nil {
			r.close()
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			r.close()
			return nil, fmt.Errorf("%s/readyz: HTTP %d", n.url, resp.StatusCode)
		}
	}
	if st := r.coord.Stats(); st.WorkersLive != fabricNodes {
		r.close()
		return nil, fmt.Errorf("fabric has %d live workers, want %d", st.WorkersLive, fabricNodes)
	}
	return r, nil
}

// warmVariant is the variant set-up serves once per kernel: a packing
// factor the traffic never draws, so no timed job is answered from it.
var warmVariant = variant{PackFactor: 2, Threadlets: 4}

// warm serves one job per kernel through the whole fabric, so connections,
// lazy initialisation and heap growth are done before timing starts, and
// proves the fabric answers.
func (r *rig) warm(seed int64, srcs map[string]kernelSource) error {
	for _, k := range serveKernels {
		it := trafficItem{First: -1, Kernel: k, Variant: warmVariant}
		body, err := json.Marshal(it.jobSpec(seed, srcs))
		if err != nil {
			return err
		}
		status, v, err := r.post(body)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", k, err)
		}
		if status != http.StatusOK || v.Status != serve.StatusDone {
			return fmt.Errorf("warm-up %s: HTTP %d %s %s", k, status, v.Status, v.Error)
		}
	}
	return nil
}

// close drains the front first, then the coordinator, then the workers, so
// nothing waits on a connection the coordinator still holds.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	if r.front != nil {
		errs = append(errs, r.front.shutdown(ctx))
	}
	if r.coord != nil {
		r.coord.Close()
	}
	for _, w := range r.workers {
		errs = append(errs, w.shutdown(ctx))
	}
	r.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// gauges fetches a daemon's /metrics registry snapshot.
func (r *rig) gauges(n *node) (map[string]float64, error) {
	resp, err := r.client.Get(n.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", n.url, err)
	}
	return doc.Metrics, nil
}

// snapshot is the gauges of the front and every worker at one instant.
type snapshot struct {
	front   map[string]float64
	workers []map[string]float64
}

func (r *rig) snapshot() (snapshot, error) {
	var s snapshot
	var err error
	if s.front, err = r.gauges(r.front); err != nil {
		return s, err
	}
	for _, w := range r.workers {
		g, err := r.gauges(w)
		if err != nil {
			return s, err
		}
		s.workers = append(s.workers, g)
	}
	return s, nil
}

// jobView is the part of a job response the benchmark reads.
type jobView struct {
	Fingerprint string          `json:"fingerprint"`
	Status      string          `json:"status"`
	Error       string          `json:"error"`
	QueuedMS    int64           `json:"queued_ms"`
	RunMS       int64           `json:"run_ms"`
	Result      json.RawMessage `json:"result"`
}

type jobResult struct {
	Worker       string  `json:"worker"`
	ArchInsts    uint64  `json:"arch_insts"`
	Windows      int     `json:"windows"`
	EffectiveIPS float64 `json:"effective_insts_per_sec"`
}

// answer is one completed request.
type answer struct {
	item   trafficItem
	client int
	start  time.Time
	end    time.Time
	status int
	view   jobView
	res    jobResult
	err    error
}

func (a answer) ok() bool {
	return a.err == nil && a.status == http.StatusOK && a.view.Status == serve.StatusDone
}

// post submits one job synchronously and decodes the answer.
func (r *rig) post(body []byte) (int, jobView, error) {
	var v jobView
	resp, err := r.client.Post(r.front.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, v, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return resp.StatusCode, v, fmt.Errorf("decode job view: %w", err)
	}
	return resp.StatusCode, v, nil
}

// hostTimeFields are the result fields that report host time; everything
// else in a result is modelled and must repeat byte for byte.
var hostTimeFields = []string{"worker", "tier1_insts_per_sec", "effective_insts_per_sec"}

// canonical returns a result with its host-time fields removed, re-encoded
// with sorted keys.
func canonical(raw json.RawMessage) (string, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return "", err
	}
	for _, f := range hostTimeFields {
		delete(m, f)
	}
	b, err := json.Marshal(m)
	return string(b), err
}

func runServeFabric(env *runEnv) (*result, error) {
	res := newResult()
	var (
		r    *rig
		seq  []trafficItem
		srcs map[string]kernelSource
	)
	err := repeatSetup(res, func() (err error) {
		if srcs, err = serveSources(); err != nil {
			return err
		}
		seq = trafficSequence(env.seed)
		if r, err = startRig(); err != nil {
			return err
		}
		if err := r.warm(env.seed, srcs); err != nil {
			r.close()
			r = nil
			return err
		}
		return nil
	}, func() error { return r.close() })
	if err != nil {
		return nil, err
	}
	defer r.close()

	var tr *tracer
	if env.traced {
		tr = newTracer()
	}
	before, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	var (
		mu        sync.Mutex
		answers   []answer
		next      atomic.Int64
		done      atomic.Int64
		exhausted atomic.Bool
		wg        sync.WaitGroup
	)
	m0 := readMem()
	env.begin()
	for c := 0; c < env.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for env.more(int(done.Load())) {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					exhausted.Store(true)
					return
				}
				a := answer{item: seq[i], client: c}
				body, err := json.Marshal(seq[i].jobSpec(env.seed, srcs))
				a.start = time.Now()
				if err == nil {
					a.status, a.view, a.err = r.post(body)
				} else {
					a.err = err
				}
				a.end = time.Now()
				if a.ok() && len(a.view.Result) > 0 {
					if err := json.Unmarshal(a.view.Result, &a.res); err != nil {
						a.err = err
					}
				}
				if tracedItem(env, i) {
					tr.record(-1, i, c, "serve.job."+seq[i].Kernel, a.start, a.end)
				}
				done.Add(1)
				mu.Lock()
				answers = append(answers, a)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.timed = time.Since(env.start)
	res.rssMB = env.end()
	res.mallocs = float64(readMem().mallocs - m0.mallocs)
	after, err := r.snapshot()
	if err != nil {
		return nil, err
	}

	lay := &serveLayers{}
	refs := make(map[int]firstAnswer) // spec (index of its first submission) -> reference answer
	for _, a := range answers {
		res.attempted++
		lat := msOf(a.end.Sub(a.start))
		if !a.ok() {
			if a.status == http.StatusTooManyRequests {
				lay.rejected++
			}
			res.failOp(true, "job %d: HTTP %d %s %v %s", a.item.Index, a.status, a.view.Status, a.err, a.view.Error)
			continue
		}
		res.check(len(a.view.Result) > 0 && string(a.view.Result) != "null" && a.res.ArchInsts > 0,
			"job %d: HTTP 200 without a result", a.item.Index)
		c, err := canonical(a.view.Result)
		res.check(err == nil, "job %d: result does not decode: %v", a.item.Index, err)
		addReference(refs, a, c)
		res.jobs.add(lat)
		res.insts += float64(a.res.ArchInsts)
		lay.add(a, lat, tracedItem(env, a.item.Index))
	}
	checkAnswers(res, lay, answers, refs)
	res.notes["seed"] = env.seed
	res.notes["jobs_sequenced"] = len(seq)
	res.notes["jobs_answered"] = len(answers)
	res.notes["repeats_answered"] = lay.repeats
	if exhausted.Load() {
		// Not a failure: the program outran the sequence, and the measuring
		// phase ended with it.
		res.notes["sequence_exhausted"] = true
	}
	if env.traced {
		res.spans = tr.snapshot()
		lay.fill(res, before, after)
	}
	return res, nil
}

// firstAnswer is the reference answer for one spec: what its first
// submission returned.
type firstAnswer struct {
	fingerprint, canon, worker string
	repeat                     bool // a repeat stands in: the first failed or is not in yet
}

// addReference records a as its spec's reference answer. The first
// submission of each spec is the reference; a repeat that was answered while
// its first was still in flight stands in until the first arrives.
func addReference(refs map[int]firstAnswer, a answer, canon string) {
	if f, seen := refs[a.item.First]; !seen || (!a.item.Repeat && f.repeat) {
		refs[a.item.First] = firstAnswer{fingerprint: a.view.Fingerprint, canon: canon, worker: a.res.Worker, repeat: a.item.Repeat}
	}
}

// checkAnswers holds every answered job to what the benchmark knows about
// the sequence, not to what the server reports: every repeat carries its
// spec's fingerprint and a result byte-identical to its spec's reference
// answer, and two different specs never share a fingerprint (a collision
// would let the run-cache serve one spec's result for another). It also
// counts, for fabric affinity, the repeats the reference's worker answered.
func checkAnswers(res *result, lay *serveLayers, answers []answer, refs map[int]firstAnswer) {
	specOf := make(map[string]int) // fingerprint -> spec
	for first, f := range refs {
		if other, dup := specOf[f.fingerprint]; dup {
			res.check(false, "jobs %d and %d are different specs with one fingerprint %s", min(first, other), max(first, other), f.fingerprint)
		}
		specOf[f.fingerprint] = first
	}
	for _, a := range answers {
		if !a.ok() || !a.item.Repeat {
			continue
		}
		f := refs[a.item.First]
		res.check(a.view.Fingerprint == f.fingerprint, "job %d (repeat of %d): fingerprint %s, want %s",
			a.item.Index, a.item.First, a.view.Fingerprint, f.fingerprint)
		c, _ := canonical(a.view.Result)
		res.check(c == f.canon, "job %d (repeat of %d): result differs from the first answer", a.item.Index, a.item.First)
		lay.repeats++
		if f.worker == a.res.Worker {
			lay.affine++
		}
	}
}

// tracedItem reports whether job i is in a traced block: the traced run
// alternates blocks of 2*nproc untraced and traced jobs, so the tracing
// overhead is measured within one run.
func tracedItem(env *runEnv, i int) bool {
	return env.traced && (i/(2*env.nproc))%2 == 1
}

// serveLayers accumulates the serve-fabric per-layer figures.
type serveLayers struct {
	queued, run, overhead, hop, sampled []float64
	windows                             float64
	rejected                            float64
	repeats, affine                     int
	insts                               [2]float64 // untraced, traced
	busy                                [2]float64 // summed latency, s
}

func (l *serveLayers) add(a answer, lat float64, traced bool) {
	q, r := float64(a.view.QueuedMS), float64(a.view.RunMS)
	l.queued = append(l.queued, q)
	l.run = append(l.run, r)
	l.overhead = append(l.overhead, lat-q-r)
	// The worker's sampled run time is its instruction count over its
	// effective rate; the rest of the front's run time is the fabric hop
	// (dispatch, the worker's admission and compile, and the relay).
	if a.res.EffectiveIPS > 0 {
		s := float64(a.res.ArchInsts) / a.res.EffectiveIPS * 1000
		l.sampled = append(l.sampled, s)
		l.hop = append(l.hop, r-s)
	}
	l.windows += float64(a.res.Windows)
	k := btoi(traced)
	l.insts[k] += float64(a.res.ArchInsts)
	l.busy[k] += lat / 1000
}

func (l *serveLayers) fill(res *result, before, after snapshot) {
	L := res.layers
	d := func(m string) float64 { return after.front[m] - before.front[m] }
	var hits, misses, joins, util float64
	for i := range after.workers {
		w0, w1 := before.workers[i], after.workers[i]
		hits += w1["harness.CacheHits"] - w0["harness.CacheHits"]
		misses += w1["harness.CacheMisses"] - w0["harness.CacheMisses"]
		joins += w1["harness.CacheFlightJoins"] - w0["harness.CacheFlightJoins"]
		util += w1["harness.Utilization"] / float64(len(after.workers))
	}
	L["serve.queued_ms"] = median(l.queued)
	L["serve.run_ms"] = median(l.run)
	L["serve.overhead_ms"] = median(l.overhead)
	L["serve.rejected"] = l.rejected + d("serve.AdmissionRejects")
	L["fabric.hop_ms"] = median(l.hop)
	L["fabric.hedges"] = d("fabric.HedgesLaunched")
	L["fabric.steals"] = d("fabric.Steals")
	L["fabric.retries"] = d("fabric.Retries")
	L["fabric.requeues"] = d("fabric.Requeues")
	L["fabric.affinity_ratio"] = ratio(float64(l.affine), float64(l.repeats))
	L["sim.cache.hits"] = hits
	L["sim.cache.misses"] = misses
	L["sim.cache.flight_joins"] = joins
	L["sim.cache.hit_ratio"] = ratio(hits+joins, hits+joins+misses)
	L["sim.harness.utilization"] = util
	L["sim.sampled.run_ms"] = median(l.sampled)
	L["sim.sampled.windows"] = l.windows
	L["run.failed_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	L["trace.untraced_insts_per_s"] = ratio(l.insts[0], l.busy[0])
	L["trace.traced_insts_per_s"] = ratio(l.insts[1], l.busy[1])
	L["trace.overhead_pct"] = (ratio(L["trace.untraced_insts_per_s"], L["trace.traced_insts_per_s"]) - 1) * 100
}
