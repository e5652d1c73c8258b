package main

// The functional-suite workload: every CPU2017 and CPU2006 kernel compiled
// from source, linted, and run on the reference interpreter and on the
// fast-functional tier with the sampled driver's warming. It runs zero
// detailed cycles, so a change to the detailed core must read "no change"
// here, while image loading, which dominates ref and fastsim, shows fully.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"loopfrog/internal/asm"
	"loopfrog/internal/compiler"
	"loopfrog/internal/cpu"
	"loopfrog/internal/fastsim"
	"loopfrog/internal/lint"
	"loopfrog/internal/mem"
	"loopfrog/internal/ref"
	"loopfrog/internal/workloads"
)

// functionalSetup builds the suite and checks every kernel compiles and
// lints clean before timing starts, so a broken input fails set-up rather
// than reading as a slow chain.
func functionalSetup() ([]*workloads.Benchmark, error) {
	suite := append(workloads.CPU2017(), workloads.CPU2006()...)
	for _, b := range suite {
		p, _, err := compiler.Compile(b.Name, b.Source())
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", b.Name, err)
		}
		if rep := lint.Run(p, lint.DefaultOptions()); rep.Errors() > 0 {
			return nil, fmt.Errorf("%s: lint reports %d errors", b.Name, rep.Errors())
		}
	}
	return suite, nil
}

// chainOut is one kernel's compile -> lint -> ref -> fastsim outcome.
type chainOut struct {
	prog *asm.Program
	ref  *ref.Result
	fast *fastsim.Result
	lint *lint.Report
	err  error
}

// chainStep wraps each call of the chain; the traced pass opens a span and
// reads allocation counters around it, the untraced pass just calls it.
type chainStep func(name string, call func())

func runChain(b *workloads.Benchmark, opts fastsim.Options, step chainStep) chainOut {
	var o chainOut
	step("compiler.compile", func() { o.prog, _, o.err = compiler.Compile(b.Name, b.Source()) })
	if o.err != nil {
		return o
	}
	step("lint.run", func() { o.lint = lint.Run(o.prog, lint.DefaultOptions()) })
	step("ref.run", func() { o.ref, o.err = ref.Run(o.prog, ref.Options{}) })
	if o.err != nil {
		return o
	}
	step("fastsim.run", func() { o.fast, o.err = fastsim.Run(o.prog, opts) })
	return o
}

func plainStep(_ string, call func()) { call() }

// checkChain applies the output checks to one chain and returns the
// instructions it interpreted (ref plus fastsim).
func checkChain(res *result, b *workloads.Benchmark, o chainOut) float64 {
	res.attempted++
	if o.err != nil {
		res.failOp(true, "%s: %v", b.Name, o.err)
		return 0
	}
	res.check(o.lint.Errors() == 0, "%s: lint reports %d errors", b.Name, o.lint.Errors())
	res.check(o.fast.DynInsts == o.ref.DynInsts, "%s: fastsim ran %d insts, ref %d", b.Name, o.fast.DynInsts, o.ref.DynInsts)
	res.check(o.fast.Regs == o.ref.Regs, "%s: fastsim's final registers differ from ref's", b.Name)
	return float64(o.ref.DynInsts + o.fast.DynInsts)
}

func runFunctional(env *runEnv) (*result, error) {
	res := newResult()
	var suite []*workloads.Benchmark
	err := repeatSetup(res, func() (err error) {
		suite, err = functionalSetup()
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	cfg := cpu.DefaultConfig()
	opts := sampledFastsimOptions(&cfg)
	rng := rand.New(rand.NewSource(env.seed))
	acc := &funcLayers{}
	var tr *tracer
	if env.traced {
		tr = newTracer()
	}
	env.begin()
	for pass := 0; pass == 0 || env.more(res.jobs.n()); pass++ {
		order := rng.Perm(len(suite))
		settle()
		if env.traced {
			functionalPassTraced(res, acc, tr, suite, order, opts, pass)
		} else {
			functionalPass(env, res, suite, order, opts)
		}
	}
	res.rssMB = env.end()
	if env.traced {
		res.spans = tr.snapshot()
		acc.fill(res)
	}
	return res, nil
}

// functionalPass runs every kernel's chain once, from nproc goroutines in
// the seeded order, compiling from source every time. Each chain is checked
// as soon as it returns and then dropped: a fastsim result holds its
// checkpoints, and a whole pass of them would not fit in memory.
func functionalPass(env *runEnv, res *result, suite []*workloads.Benchmark, order []int, opts fastsim.Options) {
	var mu sync.Mutex
	m0 := readMem()
	t0 := time.Now()
	parallel(env.nproc, len(suite), func(k int) {
		b := suite[order[k]]
		s := time.Now()
		o := runChain(b, opts, plainStep)
		d := time.Since(s)
		mu.Lock()
		defer mu.Unlock()
		if insts := checkChain(res, b, o); insts > 0 {
			res.insts += insts
			res.jobs.add(msOf(d))
		}
	})
	res.timed += time.Since(t0)
	res.mallocs += float64(readMem().mallocs - m0.mallocs)
}

// funcLayers accumulates the traced functional pass's per-layer figures.
type funcLayers struct {
	time      map[string]time.Duration
	calls     map[string]int
	compileB  float64
	refInsts  float64
	fastInsts float64
	ckpts     float64
	passes    int
	untraced  time.Duration
	traced    time.Duration
	insts     float64
}

// functionalPassTraced runs every kernel's chain twice on one lane, once
// untraced and once with a span around each call (alternating which goes
// first), then times mem.LoadProgram on the compiled image on its own.
func functionalPassTraced(res *result, acc *funcLayers, tr *tracer, suite []*workloads.Benchmark, order []int, opts fastsim.Options, pass int) {
	if acc.time == nil {
		acc.time, acc.calls = map[string]time.Duration{}, map[string]int{}
	}
	root := tr.begin(-1, pass, 0, "perfbench.pass")
	for k, i := range order {
		b := suite[i]
		untraced := func() {
			s := time.Now()
			o := runChain(b, opts, plainStep)
			d := time.Since(s)
			if insts := checkChain(res, b, o); insts > 0 {
				res.insts += insts
				res.timed += d
				res.jobs.add(msOf(d))
				acc.untraced += d
			}
		}
		traced := func() {
			kern := tr.begin(root, pass, 0, "kernel."+b.Name)
			defer tr.end(kern)
			var chain time.Duration
			step := func(name string, call func()) {
				m0 := readMem()
				sp := tr.begin(kern, pass, 0, name)
				s := time.Now()
				call()
				d := time.Since(s)
				tr.end(sp)
				chain += d
				acc.time[name] += d
				acc.calls[name]++
				if name == "compiler.compile" {
					acc.compileB += float64(readMem().bytes - m0.bytes)
				}
			}
			o := runChain(b, opts, step)
			insts := checkChain(res, b, o)
			if insts == 0 {
				return
			}
			acc.traced += chain
			acc.insts += insts
			acc.refInsts += float64(o.ref.DynInsts)
			acc.fastInsts += float64(o.fast.DynInsts)
			acc.ckpts += float64(len(o.fast.Checkpoints))
			sp := tr.begin(kern, pass, 0, "mem.load_program")
			s := time.Now()
			mem.NewMemory().LoadProgram(o.prog)
			d := time.Since(s)
			tr.end(sp)
			acc.time["mem.load_program"] += d
			acc.calls["mem.load_program"]++
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
	acc.passes++
}

func (a *funcLayers) fill(res *result) {
	L := res.layers
	mean := func(name string) float64 { return ratio(msOf(a.time[name]), float64(a.calls[name])) }
	L["compiler.compile_ms"] = mean("compiler.compile")
	L["compiler.alloc_mb"] = ratio(a.compileB/(1<<20), float64(a.calls["compiler.compile"]))
	L["lint.run_ms"] = mean("lint.run")
	L["ref.run_ms"] = mean("ref.run")
	L["ref.insts_per_s"] = ratio(a.refInsts, a.time["ref.run"].Seconds())
	L["fastsim.run_ms"] = mean("fastsim.run")
	L["fastsim.insts_per_s"] = ratio(a.fastInsts, a.time["fastsim.run"].Seconds())
	L["fastsim.checkpoints"] = ratio(a.ckpts, float64(a.passes))
	L["mem.load_program_ms"] = mean("mem.load_program")
	L["run.failed_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	L["trace.untraced_insts_per_s"] = ratio(a.insts, a.untraced.Seconds())
	L["trace.traced_insts_per_s"] = ratio(a.insts, a.traced.Seconds())
	L["trace.overhead_pct"] = (ratio(a.traced.Seconds(), a.untraced.Seconds()) - 1) * 100
}
