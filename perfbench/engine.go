package main

// The engine-detailed workload: full detailed runs, baseline and LoopFrog,
// of the three engine-heavy kernels. Host time goes almost entirely to the
// detailed core (cpu, core, mem caches, bpred) with the LoopFrog engine
// winning; compiler, lint, serve and fabric do nearly nothing.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"loopfrog/internal/asm"
	"loopfrog/internal/compiler"
	"loopfrog/internal/core"
	"loopfrog/internal/cpu"
	"loopfrog/internal/fastsim"
	"loopfrog/internal/fault"
	"loopfrog/internal/isa"
	"loopfrog/internal/mem"
	"loopfrog/internal/sim"
	"loopfrog/internal/telemetry"
	"loopfrog/internal/workloads"
)

// engineGolden is one kernel's reference outcome under cpu.DefaultConfig
// with cold caches: committed instructions and the baseline and LoopFrog
// cycle counts. The simulator is deterministic, so any change to these is a
// change to the model, and the run fails its output check.
type engineGolden struct {
	insts    uint64
	base, lf int64
}

var engineGoldens = map[string]engineGolden{
	"mcf":     {insts: 582817, base: 541102, lf: 339354},
	"imagick": {insts: 455274, base: 242925, lf: 130143},
	"omnetpp": {insts: 625531, base: 276994, lf: 174818},
}

// engineKernels are the timed kernels; heldOutKernels feed the sampling
// error figure. DefaultSampleConfig was tuned on CPU2017 only, so these
// engine-heavy CPU2006 kernels are held out from that tuning.
var (
	engineKernels  = []string{"mcf", "imagick", "omnetpp"}
	heldOutKernels = []string{"mcf06", "omnetpp06", "gromacs"}
)

// engineJob is one detailed run: a kernel on the baseline or LoopFrog core.
type engineJob struct {
	bench *workloads.Benchmark
	prog  *asm.Program
	lf    bool
	cfg   cpu.Config
}

func (j engineJob) label() string {
	if j.lf {
		return j.bench.Name + "/lf"
	}
	return j.bench.Name + "/base"
}

func (j engineJob) golden() (uint64, int64) {
	g := engineGoldens[j.bench.Name]
	if j.lf {
		return g.insts, g.lf
	}
	return g.insts, g.base
}

// compileKernels compiles the named suite kernels from source.
func compileKernels(names []string) ([]*workloads.Benchmark, []*asm.Program, error) {
	suite := append(workloads.CPU2017(), workloads.CPU2006()...)
	var benches []*workloads.Benchmark
	var progs []*asm.Program
	for _, n := range names {
		b := workloads.ByName(suite, n)
		if b == nil {
			return nil, nil, fmt.Errorf("unknown kernel %q", n)
		}
		p, _, err := compiler.Compile(b.Name, b.Source())
		if err != nil {
			return nil, nil, fmt.Errorf("compile %s: %w", n, err)
		}
		benches = append(benches, b)
		progs = append(progs, p)
	}
	return benches, progs, nil
}

func engineSetup() ([]engineJob, error) {
	benches, progs, err := compileKernels(engineKernels)
	if err != nil {
		return nil, err
	}
	lf := cpu.DefaultConfig()
	base := sim.BaselineOf(lf)
	var jobs []engineJob
	for i, b := range benches {
		jobs = append(jobs,
			engineJob{bench: b, prog: progs[i], cfg: base},
			engineJob{bench: b, prog: progs[i], lf: true, cfg: lf})
	}
	return jobs, nil
}

// checkRegs is the register set fault.Check compares: compiled kernels
// leave body temporaries behind, so only the ABI result register is
// architecturally defined unless the kernel normalises its registers.
func checkRegs(b *workloads.Benchmark) []isa.Reg {
	if b.NormalisedRegs {
		return nil
	}
	return fault.ResultRegs()
}

// checkEngineRun applies every output check to one finished detailed run.
func checkEngineRun(res *result, j engineJob, m *cpu.Machine, st *cpu.Stats) {
	insts, cycles := j.golden()
	res.check(st.ArchInsts == insts, "%s committed %d insts, golden %d", j.label(), st.ArchInsts, insts)
	res.check(st.Cycles == cycles, "%s took %d cycles, golden %d", j.label(), st.Cycles, cycles)
	if m == nil {
		res.check(false, "%s: no machine observed", j.label())
		return
	}
	diff, err := fault.Check(m, j.prog, fault.CheckOpts{Regs: checkRegs(j.bench)})
	res.check(err == nil && diff == "", "%s final state differs from the reference: %v %s", j.label(), err, diff)
}

func runEngine(env *runEnv) (*result, error) {
	res := newResult()
	var jobs []engineJob
	err := repeatSetup(res, func() (err error) {
		jobs, err = engineSetup()
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(env.seed))
	acc := newEngineLayers()
	var tr *tracer
	if env.traced {
		tr = newTracer()
	}
	env.begin()
	for pass := 0; pass == 0 || env.more(res.jobs.n()); pass++ {
		order := rng.Perm(len(jobs))
		settle()
		if env.traced {
			enginePassTraced(res, acc, tr, jobs, order, pass)
		} else {
			enginePass(env, res, jobs, order)
		}
	}
	res.rssMB = env.end()
	res.notes["timed_insts"] = res.insts
	if env.traced {
		res.spans = tr.snapshot()
		if err := engineTraceExtras(env, res, acc); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// enginePass runs every job once on a fresh harness sized to nproc, from
// nproc closed-loop submitters in the seeded order. The pass is timed by
// wall clock, from its first submission to its last answer; the output
// checks run after the clock stops, so they neither pad nor shorten it.
func enginePass(env *runEnv, res *result, jobs []engineJob, order []int) {
	h := &sim.Harness{Workers: env.nproc, Cache: sim.NewRunCache()}
	type outcome struct {
		m   *cpu.Machine
		st  *cpu.Stats
		d   time.Duration
		err error
	}
	outs := make([]outcome, len(jobs))
	m0 := readMem()
	t0 := time.Now()
	parallel(env.nproc, len(jobs), func(k int) {
		j, o := jobs[order[k]], &outs[k]
		s := time.Now()
		st, err := h.RunJobs([]sim.Job{{Cfg: j.cfg, Prog: j.prog, Observe: func(mm *cpu.Machine) { o.m = mm }}})
		o.d, o.err = time.Since(s), err
		if err == nil {
			o.st = st[0]
		}
	})
	res.timed += time.Since(t0)
	res.mallocs += float64(readMem().mallocs - m0.mallocs)
	for k, o := range outs {
		j := jobs[order[k]]
		res.attempted++
		if o.err != nil {
			res.failOp(true, "%s: %v", j.label(), o.err)
			continue
		}
		res.jobs.add(msOf(o.d))
		res.insts += float64(o.st.ArchInsts)
		checkEngineRun(res, j, o.m, o.st)
	}
	hs := h.Stats()
	res.check(hs.CacheHits == 0 && hs.CacheFlightJoins == 0, "harness cache served %d hits and %d joins in the timed phase; want 0", hs.CacheHits, hs.CacheFlightJoins)
}

// parallel calls f(0..n-1) from w goroutines and returns when all are done.
func parallel(w, n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// engineLayers accumulates the traced pass's per-layer figures.
type engineLayers struct {
	calls                      int
	newMachine, run            time.Duration
	untraced                   time.Duration
	insts                      float64
	mallocs, bytes             float64
	gcCPU, allCPU              float64
	cycles                     float64
	slots                      [cpu.NumSlotClasses]float64
	spawns, retires, packed    float64
	squashes                   [core.NumSquashCauses]float64
	specWasted                 float64
	branches, mispredicts      float64
	l1dAcc, l1dMiss            float64
	l2Acc, l2Miss              float64
	harnessJobNanos, harnessWN float64
	passes                     int
	baseCycles, lfCycles       map[string]int64
	mcfLF                      struct {
		newMachine, run time.Duration
		insts, mallocs  float64
	}
}

func newEngineLayers() *engineLayers {
	return &engineLayers{baseCycles: map[string]int64{}, lfCycles: map[string]int64{}}
}

// cpuTime returns the runtime's GC and total CPU-time estimates.
func cpuTime() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// enginePassTraced runs every job twice on one lane: once untraced through
// a one-worker harness, once traced through cpu.NewMachine and Machine.Run
// directly, alternating which goes first. With one lane the allocation and
// GC deltas around each call belong to that call.
func enginePassTraced(res *result, acc *engineLayers, tr *tracer, jobs []engineJob, order []int, pass int) {
	h := &sim.Harness{Workers: 1, Cache: sim.NewRunCache()}
	root := tr.begin(-1, pass, 0, "perfbench.pass")
	for k, i := range order {
		j := jobs[i]
		untraced := func() {
			var m *cpu.Machine
			s := time.Now()
			st, err := h.RunJobs([]sim.Job{{Cfg: j.cfg, Prog: j.prog, Observe: func(mm *cpu.Machine) { m = mm }}})
			d := time.Since(s)
			res.attempted++
			if err != nil {
				res.failOp(true, "%s: %v", j.label(), err)
				return
			}
			acc.untraced += d
			res.jobs.add(msOf(d))
			res.insts += float64(st[0].ArchInsts)
			res.timed += d
			checkEngineRun(res, j, m, st[0])
		}
		traced := func() {
			res.attempted++
			job := tr.begin(root, pass, 0, "job."+j.label())
			defer tr.end(job)
			g0, c0 := cpuTime()
			m0 := readMem()
			sp := tr.begin(job, pass, 0, "cpu.new_machine")
			t0 := time.Now()
			m, err := cpu.NewMachine(j.cfg, j.prog)
			t1 := time.Now()
			tr.end(sp)
			if err != nil {
				res.failOp(false, "%s: %v", j.label(), err)
				return
			}
			sp = tr.begin(job, pass, 0, "cpu.run")
			t2 := time.Now()
			st, err := m.Run()
			t3 := time.Now()
			tr.end(sp)
			m2 := readMem()
			g1, c1 := cpuTime()
			if err != nil {
				res.failOp(false, "%s: %v", j.label(), err)
				return
			}
			nm, rn := t1.Sub(t0), t3.Sub(t2)
			acc.calls++
			acc.newMachine += nm
			acc.run += rn
			acc.insts += float64(st.ArchInsts)
			acc.mallocs += float64(m2.mallocs - m0.mallocs)
			acc.bytes += float64(m2.bytes - m0.bytes)
			acc.gcCPU += g1 - g0
			acc.allCPU += c1 - c0
			if j.bench.Name == "mcf" && j.lf {
				acc.mcfLF.newMachine += nm
				acc.mcfLF.run += rn
				acc.mcfLF.insts += float64(st.ArchInsts)
				acc.mcfLF.mallocs += float64(m2.mallocs - m0.mallocs)
			}
			acc.addStats(st)
			if j.lf {
				acc.lfCycles[j.bench.Name] = st.Cycles
			} else {
				acc.baseCycles[j.bench.Name] = st.Cycles
			}
			err = acc.addCaches(m)
			res.check(err == nil, "%s: %v", j.label(), err)
			sp = tr.begin(job, pass, 0, "fault.check")
			checkEngineRun(res, j, m, st)
			tr.end(sp)
		}
		if k%2 == 0 {
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
	}
	tr.end(root)
	hs := h.Stats()
	res.check(hs.CacheHits == 0 && hs.CacheFlightJoins == 0, "harness cache served %d hits and %d joins in the timed phase; want 0", hs.CacheHits, hs.CacheFlightJoins)
	acc.harnessJobNanos += float64(hs.JobNanos)
	acc.harnessWN += float64(hs.WallNanos) * float64(hs.Workers)
	acc.passes++
}

func (a *engineLayers) addStats(st *cpu.Stats) {
	a.cycles += float64(st.Cycles)
	for i, v := range st.CommitSlots {
		a.slots[i] += float64(v)
	}
	a.spawns += float64(st.Spawns)
	a.retires += float64(st.Retires)
	a.packed += float64(st.PackedSpawns)
	for i, v := range st.Squashes {
		a.squashes[i] += float64(v)
	}
	a.specWasted += float64(st.SpecCommitted)
	a.branches += float64(st.Branches)
	a.mispredicts += float64(st.Mispredicts)
}

// addCaches reads the cache counters through the telemetry registry, the
// same path lfsim -metrics and lfservd's /metrics take.
func (a *engineLayers) addCaches(m *cpu.Machine) error {
	reg := telemetry.NewRegistry()
	if err := telemetry.CollectMachine(reg, m); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	for _, mt := range reg.Snapshot() {
		switch mt.Name {
		case "mem.l1d.Accesses":
			a.l1dAcc += mt.Value
		case "mem.l1d.Misses":
			a.l1dMiss += mt.Value
		case "mem.l2.Accesses":
			a.l2Acc += mt.Value
		case "mem.l2.Misses":
			a.l2Miss += mt.Value
		}
	}
	return nil
}

// engineTraceExtras fills the per-layer table of a traced engine run and
// adds the figures computed outside the timed passes: the sampling error on
// held-out kernels and the ROADMAP cross-check for mcf.
func engineTraceExtras(env *runEnv, res *result, a *engineLayers) error {
	L := res.layers
	calls, passes := float64(a.calls), float64(a.passes)
	L["cpu.new_machine_ms"] = msOf(a.newMachine) / calls
	L["cpu.run_ms"] = msOf(a.run) / calls
	L["cpu.insts_per_s"] = a.insts / (a.newMachine + a.run).Seconds()
	L["cpu.alloc_bytes_per_inst"] = a.bytes / a.insts
	L["cpu.allocs_per_inst"] = a.mallocs / a.insts
	L["cpu.gc_cpu_fraction"] = ratio(a.gcCPU, a.allCPU)
	L["cpu.cycles"] = a.cycles / passes
	L["cpu.ipc"] = a.insts / a.cycles
	for i, name := range cpu.SlotClassNames() {
		L["cpu.commit_slots."+name] = a.slots[i] / passes
	}
	L["core.spawns"] = a.spawns / passes
	L["core.retires"] = a.retires / passes
	L["core.spawn_success_ratio"] = ratio(a.retires, a.spawns)
	for c, v := range a.squashes {
		L["core.squashes."+core.SquashCause(c).String()] = v / passes
	}
	L["core.packed_spawns"] = a.packed / passes
	L["core.spec_wasted_insts"] = a.specWasted / passes
	L["bpred.mispredict_ratio"] = ratio(a.mispredicts, a.branches)
	L["mem.l1d_miss_ratio"] = ratio(a.l1dMiss, a.l1dAcc)
	L["mem.l2_miss_ratio"] = ratio(a.l2Miss, a.l2Acc)
	L["sim.harness.utilization"] = ratio(a.harnessJobNanos, a.harnessWN)
	L["sim.cache.misses"] = float64(res.jobs.n()) / passes
	L["run.failed_ratio"] = ratio(float64(res.failed), float64(res.attempted))

	var speedups []float64
	for _, n := range engineKernels {
		if lf := a.lfCycles[n]; lf > 0 {
			speedups = append(speedups, float64(a.baseCycles[n])/float64(lf))
		}
	}
	L["model.lf_speedup_geomean"] = sim.Geomean(speedups)

	traced := a.newMachine + a.run
	L["trace.untraced_insts_per_s"] = a.insts / a.untraced.Seconds()
	L["trace.traced_insts_per_s"] = a.insts / traced.Seconds()
	L["trace.overhead_pct"] = (traced.Seconds()/a.untraced.Seconds() - 1) * 100

	mcf := a.mcfLF
	L["roadmap.mcf.detailed_insts_per_s"] = mcf.insts / (mcf.newMachine + mcf.run).Seconds()
	L["roadmap.mcf.allocs_per_inst"] = mcf.mallocs / mcf.insts
	L["roadmap.mcf.new_machine_share"] = ratio(mcf.newMachine.Seconds(), (mcf.newMachine + mcf.run).Seconds())
	share, err := loadProgramShare("mcf")
	if err != nil {
		return err
	}
	L["roadmap.mcf.load_program_share"] = share

	errPct, err := sampledErrPct(env.nproc)
	if err != nil {
		return err
	}
	L["model.sampled_err_pct"] = errPct
	return nil
}

// sampledFastsimOptions returns the tier-1 options the sampled driver
// (internal/sim) uses for cfg under DefaultSampleConfig: checkpoint
// interval and lead, and branch-predictor, cache and LoopFrog-engine
// warming.
func sampledFastsimOptions(cfg *cpu.Config) fastsim.Options {
	sc := sim.DefaultSampleConfig()
	return fastsim.Options{
		CheckpointEvery: sc.Interval,
		CheckpointLead:  sc.Warmup % sc.Interval,
		BPred:           &cfg.BPred,
		Hier:            &cfg.Hier,
		LF: &fastsim.LFWarm{
			Threadlets: cfg.Threadlets,
			Monitor:    cfg.Monitor,
			Pack:       cfg.Pack,
			SSB:        cfg.SSB,
		},
	}
}

// loadProgramShare returns the share of one plain fastsim.Run of the kernel
// (no warming, as the ROADMAP profile measured it) that an image load
// (mem.LoadProgram) takes.
func loadProgramShare(name string) (float64, error) {
	_, progs, err := compileKernels([]string{name})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := fastsim.Run(progs[0], fastsim.Options{}); err != nil {
		return 0, err
	}
	fs := time.Since(t0)
	t1 := time.Now()
	mem.NewMemory().LoadProgram(progs[0])
	return time.Since(t1).Seconds() / fs.Seconds(), nil
}

// sampledErrPct returns the mean |sampled - exact| / exact LoopFrog cycles
// over the held-out kernels, from RunSampledAB against full detailed runs.
func sampledErrPct(nproc int) (float64, error) {
	benches, progs, err := compileKernels(heldOutKernels)
	if err != nil {
		return 0, err
	}
	cfg := cpu.DefaultConfig()
	h := &sim.Harness{Workers: nproc, Cache: sim.NewRunCache()}
	var errs []float64
	for i, b := range benches {
		exact, err := h.RunJobs([]sim.Job{{Cfg: cfg, Prog: progs[i]}})
		if err != nil {
			return 0, fmt.Errorf("%s exact: %w", b.Name, err)
		}
		ab, err := h.RunSampledAB(cfg, progs[i], sim.DefaultSampleConfig())
		if err != nil {
			return 0, fmt.Errorf("%s sampled: %w", b.Name, err)
		}
		ex := float64(exact[0].Cycles)
		errs = append(errs, math.Abs(ab.LF.EstCycles-ex)/ex*100)
	}
	return sum(errs) / float64(len(errs)), nil
}
