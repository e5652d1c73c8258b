// Command perfbench is the repository's seeded benchmark for the simulator
// stack. One run measures one workload for a fixed time and prints, as the
// last line of standard output, a JSON object with the fields correct,
// attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end host-time metrics; with -trace 1 they are the per-layer metrics
// of a traced run, whose spans are also written as a Chrome trace document.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload engine-detailed --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and what each one exercises.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"loopfrog/internal/experiments"
)

// workload is one seeded traffic mix.
type workload struct {
	name string
	// tailP is the percentile job_tail_ms reports: the highest one that
	// keeps minBeyond samples beyond it at the workload's job rate.
	tailP float64
	run   func(env *runEnv) (*result, error)
}

var workloadList = []workload{
	{name: "engine-detailed", tailP: 0.75, run: runEngine},
	{name: "functional-suite", tailP: 0.90, run: runFunctional},
	{name: "serve-fabric", tailP: 0.90, run: runServeFabric},
}

// A run builds its set-up repeatedly, for at least setupMin and at least
// setupBatches batches, and setup_s reports the median batch. A batch is
// consecutive repetitions totalling at least setupBatch of set-up time,
// reported as their mean: a set-up of a few milliseconds swings by several
// times when the host takes one scheduling slice from it, a batch's mean
// much less.
const (
	setupMin     = 3 * time.Second
	setupBatches = 5
	setupBatch   = 250 * time.Millisecond
)

// repeatSetup runs build as the set-up rule above says, collecting the
// garbage before each repetition untimed, and records each batch's mean
// repetition time in res.setup. discard, when not nil, releases a
// repetition's set-up before the next one is built; the last one is kept.
func repeatSetup(res *result, build, discard func() error) error {
	start := time.Now()
	var batch time.Duration
	reps, inBatch := 0, 0
	for {
		if reps > 0 && discard != nil {
			if err := discard(); err != nil {
				return err
			}
		}
		settle()
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		batch += time.Since(t0)
		reps++
		inBatch++
		if batch >= setupBatch {
			res.setup = append(res.setup, batch.Seconds()/float64(inBatch))
			batch, inBatch = 0, 0
			if len(res.setup) >= setupBatches && time.Since(start) >= setupMin {
				res.notes["setup_reps"] = reps
				return nil
			}
		}
	}
}

// hardCap bounds a run's measuring phase when the sample floor of the tail
// percentile keeps it going past -seconds.
const hardCap = 120 * time.Second

// runEnv is what a workload run is given.
type runEnv struct {
	seed    int64
	seconds time.Duration
	traced  bool
	nproc   int
	tailP   float64
	start   time.Time // start of the measuring phase
	rss     *rssSampler
}

// begin starts the measuring phase; end stops it and returns the phase's
// resident-set level.
func (e *runEnv) begin() {
	e.start = time.Now()
	e.rss = startRSS()
}

func (e *runEnv) end() float64 { return e.rss.stop() }

// more reports whether the measuring phase should take another step: until
// -seconds have passed, and beyond that while the tail percentile still
// lacks samples (up to hardCap). A traced run reports no tail, so it stops
// at -seconds.
func (e *runEnv) more(samples int) bool {
	el := time.Since(e.start)
	if el < e.seconds {
		return true
	}
	return !e.traced && samples < minSamples(e.tailP) && el < hardCap
}

// result is what a workload run measured.
type result struct {
	attempted, failed int
	checkErrs         []string // failed output checks
	failures          []string // operations that did not complete

	setup   []float64     // seconds per set-up repetition
	insts   float64       // simulated instructions in the timed phase
	timed   time.Duration // time of the timed phase, as each workload defines it
	mallocs float64       // heap allocations in the timed phase
	jobs    latencies     // per-job latency, ms
	rssMB   float64       // resident-set level of the measuring phase

	layers map[string]float64 // per-layer metrics (traced runs)
	spans  []span
	// notes are workload-specific figures the result document records
	// beside the metrics (sample counts, set-up repetitions, job counts).
	notes map[string]any
}

func newResult() *result {
	return &result{layers: make(map[string]float64), notes: make(map[string]any)}
}

// check records a failed output check; a failed check fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

// failOp records an operation that did not complete. It counts as failed
// and, when it is a timed job, enters the latencies as +Inf.
func (r *result) failOp(timed bool, format string, args ...any) {
	r.failed++
	if timed {
		r.jobs.fail()
	}
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: engine-detailed, functional-suite or serve-fabric")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "length of the measuring phase")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result and trace documents")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			wl = &workloadList[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	env := &runEnv{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		nproc:   runtime.GOMAXPROCS(0),
		tailP:   wl.tailP,
	}
	res, err := wl.run(env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	e2e, err := endToEndValues(wl, res)
	if err != nil && env.traced {
		// The traced run's per-layer metrics stand on their own; its
		// end-to-end figures are recorded only where the percentile rule
		// holds for its (smaller) sample.
		res.notes["end_to_end_skipped"] = err.Error()
		err = nil
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	doc := map[string]any{
		"meta":       experiments.NewMeta("bash perfbench/run.sh " + strings.Join(args, " ")),
		"workload":   wl.name,
		"seed":       *seed,
		"seconds":    *seconds,
		"traced":     env.traced,
		"attempted":  res.attempted,
		"failed":     res.failed,
		"check_errs": res.checkErrs,
		"failures":   res.failures,
		"end_to_end": e2e,
		"notes":      res.notes,
	}
	if env.traced {
		doc["per_layer"] = res.layers
		doc["layer_self_ms"] = selfByLayer(res.spans)
	}
	if err := writeDocs(*out, wl.name, *seed, env.traced, doc, res.spans); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	l := line{
		Correct:   len(res.checkErrs) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue),
	}
	defs, vals := endToEnd, e2e
	if env.traced {
		defs, vals = perLayer(), res.layers
	}
	for _, d := range defs {
		l.Metrics[d.Name] = metricValue{Value: finite(vals[d.Name]), Unit: d.Unit}
	}
	w := bufio.NewWriter(stdout)
	printTable(w, wl.name, *seed, env.traced, defs, vals, res)
	for _, e := range res.checkErrs {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
	}
	for _, e := range res.failures {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
	enc, err := json.Marshal(l)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", enc)
	if err := w.Flush(); err != nil {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// endToEndValues derives the end-to-end metrics from what a run measured.
func endToEndValues(wl *workload, res *result) (map[string]float64, error) {
	if res.jobs.n() == 0 || res.insts == 0 || res.timed <= 0 {
		return nil, fmt.Errorf("nothing was measured (%d jobs, %.0f insts)", res.jobs.n(), res.insts)
	}
	p50, err := res.jobs.median()
	if err != nil {
		return nil, err
	}
	tail, err := res.jobs.percentile(wl.tailP)
	if err != nil {
		return nil, err
	}
	res.notes["setup_batches_s"] = res.setup
	res.notes["job_samples"] = res.jobs.n()
	res.notes["rss_high_water_mb"] = highWaterMB()
	res.notes["job_tail_percentile"] = wl.tailP * 100
	return map[string]float64{
		"setup_s":         median(res.setup),
		"insts_per_s":     res.insts / res.timed.Seconds(),
		"allocs_per_inst": res.mallocs / res.insts,
		"rss_mb":          res.rssMB,
		"jobs_per_s":      float64(res.jobs.n()-res.jobs.failed) / res.timed.Seconds(),
		"job_p50_ms":      p50,
		"job_tail_ms":     tail,
	}, nil
}

// finite maps the +Inf of a percentile dominated by failed jobs onto the
// largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

func printTable(w io.Writer, name string, seed int64, traced bool, defs []metricDef, vals map[string]float64, res *result) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d: %s metrics, %d attempted, %d failed\n", name, seed, mode, res.attempted, res.failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16s %s\n", d.Name, strconv.FormatFloat(vals[d.Name], 'g', 6, 64), d.Unit)
	}
	if len(res.notes) > 0 {
		keys := make([]string, 0, len(res.notes))
		for k := range res.notes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  notes:\n")
		for _, k := range keys {
			fmt.Fprintf(w, "    %-34s %v\n", k, res.notes[k])
		}
	}
}

// writeDocs writes the result document (and, for a traced run, the Chrome
// trace) under dir.
func writeDocs(dir, name string, seed int64, traced bool, doc map[string]any, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, btoi(traced)))
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if traced {
		return writeChrome(base+".trace.json", spans)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rssSampler samples the process's resident set every rssEvery during the
// measuring phase. The phase reports the median sample: the resident set
// the workload holds while it runs. The high-water mark swings by a quarter
// from run to run with where a collection happens to land, so it is only
// recorded beside it.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64
}

const rssEvery = 10 * time.Millisecond

func startRSS() *rssSampler {
	r := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb := residentMB(); mb > 0 {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// stop ends sampling and returns the median sample in MB (the Go runtime's
// view of mapped memory where /proc is missing).
func (r *rssSampler) stop() float64 {
	close(r.stopc)
	<-r.done
	if len(r.samples) == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	return median(r.samples)
}

// residentMB reads the current resident set from /proc/self/statm; 0 where
// that file does not exist.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// highWaterMB returns the process's resident-set high-water mark (VmHWM) in
// MB, recorded beside the sampled level; 0 where /proc is missing.
func highWaterMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memSnap is the allocation and GC-CPU state at one instant.
type memSnap struct {
	mallocs, bytes uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// settle collects the garbage of what ran before, untimed, so every pass
// and every set-up repetition starts from the same heap state.
func settle() { runtime.GC() }

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
