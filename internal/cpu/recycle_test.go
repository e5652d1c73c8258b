package cpu

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"loopfrog/internal/isa"
	"loopfrog/internal/ref"
	"loopfrog/internal/workloads"
)

func TestRingWrapsAndTruncates(t *testing.T) {
	r := newRing[int](3)
	for i := 0; i < 10; i++ { // push/pop across the wrap point many times
		r.push(i)
		if i >= 2 {
			if got := r.at(0); got != i-2 {
				t.Fatalf("step %d: oldest = %d, want %d", i, got, i-2)
			}
			r.pop()
		}
	}
	if r.len() != 2 || r.at(0) != 8 || r.at(1) != 9 {
		t.Fatalf("ring = len %d [%d %d], want [8 9]", r.len(), r.at(0), r.at(1))
	}
	r.truncate(1)
	r.push(42)
	if r.len() != 2 || r.at(1) != 42 {
		t.Fatalf("after truncate+push: len %d, youngest %d", r.len(), r.at(1))
	}
	r.push(43)
	defer func() {
		if recover() == nil {
			t.Error("pushing past capacity did not panic")
		}
	}()
	r.push(44)
}

// TestRecycledNamesFailLoudly: recycling bumps an instruction's generation,
// so a rename-map slot or checkpoint still naming it is caught on use (a
// model bug), while a stale waiter is skipped like a squashed one.
func TestRecycledNamesFailLoudly(t *testing.T) {
	m, err := NewMachine(DefaultConfig(), genHintedLoop(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	e := m.newInst()
	var slot mapEntry
	m.setMap(&slot, e.name())
	ref := e.ref()
	m.leave(e)
	if len(m.freeInsts) != 0 {
		t.Fatal("an instruction still named by a rename-map slot was recycled")
	}
	stale := slot
	m.setMap(&slot, mapEntry{})
	if len(m.freeInsts) != 1 || !e.squashed {
		t.Fatal("dropping the last name did not recycle and poison the instruction")
	}
	if !ref.stale() {
		t.Error("a waiter taken before the recycle is not stale")
	}
	if reused := m.newInst(); reused != e {
		t.Fatal("the free list did not hand the instruction back")
	}
	defer func() {
		if recover() == nil {
			t.Error("reading a rename-map slot naming a recycled instruction did not panic")
		}
	}()
	stale.producer()
}

// TestSquashChurnMatchesReference recycles instructions under heavy
// rollback over the random hinted-loop corpus: tiny windows and fetch queue,
// eight threadlets with taint tracking, and the speculative-load mitigation,
// which holds load results and so keeps squashed consumers on their
// producers' waiter lists the longest. The mitigation runs with four
// threadlets: with eight and windows this small, speculative dependents of
// held loads fill the shared ROB and IQ and block the architectural
// threadlet's dispatch, a known watchdog trip of the mitigation model.
func TestSquashChurnMatchesReference(t *testing.T) {
	trials := 16
	if testing.Short() {
		trials = 4
	}
	churn := func(threadlets int, mitigate bool) Config {
		cfg := DefaultConfig()
		cfg.Threadlets = threadlets
		cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize = 48, 24, 12, 8
		cfg.FetchQueue = 2
		cfg.SpectreAnalysis = true
		cfg.DelaySpeculativeLoadDeps = mitigate
		return cfg
	}
	for _, cfg := range []Config{churn(8, false), churn(4, true)} {
		var squashes, recycled uint64
		for trial := 0; trial < trials; trial++ {
			prog := genHintedLoop(rand.New(rand.NewSource(int64(5000 + trial))))
			oracle := ref.MustRun(prog, ref.Options{})
			m, err := NewMachine(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			n, err := runCountingSquashRecycles(m)
			if err != nil {
				t.Fatalf("%d threadlets, trial %d: %v", cfg.Threadlets, trial, err)
			}
			recycled += n
			regs := m.FinalRegs()
			for r := 0; r < isa.NumRegs; r++ {
				if regs[r] != oracle.Regs[r] {
					t.Fatalf("%d threadlets, trial %d: reg %s = %#x, want %#x",
						cfg.Threadlets, trial, isa.Reg(r), regs[r], oracle.Regs[r])
				}
			}
			if diff := oracle.Mem.Diff(m.Memory()); diff != "" {
				t.Fatalf("%d threadlets, trial %d: memory differs:\n%s", cfg.Threadlets, trial, diff)
			}
			st := m.Stats()
			for _, n := range st.Squashes {
				squashes += n
			}
			squashes += st.LoadReplaysLSQ + st.Mispredicts
		}
		t.Logf("%d threadlets: %d squashes, %d squashed instructions recycled",
			cfg.Threadlets, squashes, recycled)
		if squashes == 0 || recycled == 0 {
			t.Errorf("%d threadlets: %d squashes, %d squashed instructions recycled: no churn exercised",
				cfg.Threadlets, squashes, recycled)
		}
	}
}

// TestLSQIndexTracksROBOnEngineRun holds the disambiguation index invariant
// (checked every cycle by runCountingSquashRecycles) over a full-size
// LoopFrog run of an engine-heavy kernel, with ROB slices near 1024 entries.
func TestLSQIndexTracksROBOnEngineRun(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a full detailed kernel with a per-cycle check")
	}
	prog := workloads.ByName(workloads.CPU2017(), "mcf").MustProgram()
	oracle := ref.MustRun(prog, ref.Options{})
	m, err := NewMachine(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCountingSquashRecycles(m); err != nil {
		t.Fatal(err)
	}
	if diff := oracle.Mem.Diff(m.Memory()); diff != "" {
		t.Fatalf("memory differs from reference:\n%s", diff)
	}
	if st := m.Stats(); st.Spawns == 0 || st.LoadReplaysLSQ+st.Mispredicts == 0 {
		t.Errorf("%d spawns, %d LSQ replays, %d mispredicts: the run exercised no rollback",
			st.Spawns, st.LoadReplaysLSQ, st.Mispredicts)
	}
}

// lsqIndexError checks that every threadlet's sq and lq hold exactly the
// stores and loads of its ROB slice, oldest first.
func lsqIndexError(m *Machine) error {
	for _, t := range m.threads {
		ns, nl := 0, 0
		for i := 0; i < t.rob.len(); i++ {
			e := t.rob.at(i)
			switch {
			case e.meta.IsStore:
				if ns >= t.sq.len() || t.sq.at(ns) != e {
					return fmt.Errorf("cycle %d, threadlet %d: ROB store seq %d is not sq[%d]", m.now, t.id, e.seq, ns)
				}
				ns++
			case e.meta.IsLoad:
				if nl >= t.lq.len() || t.lq.at(nl) != e {
					return fmt.Errorf("cycle %d, threadlet %d: ROB load seq %d is not lq[%d]", m.now, t.id, e.seq, nl)
				}
				nl++
			}
		}
		if ns != t.sq.len() || nl != t.lq.len() {
			return fmt.Errorf("cycle %d, threadlet %d: sq/lq hold %d/%d entries, ROB slice has %d/%d",
				m.now, t.id, t.sq.len(), t.lq.len(), ns, nl)
		}
	}
	return nil
}

// iqAccountingError checks the shared IQ count, and each threadlet's share
// of it, against the instructions that hold an IQ entry: the non-NOP ROB
// entries still waiting to issue.
func iqAccountingError(m *Machine) error {
	used := 0
	for _, t := range m.threads {
		held := 0
		for i := 0; i < t.rob.len(); i++ {
			e := t.rob.at(i)
			if e.meta.Class != isa.ClassNop && (e.state == stDispatched || e.state == stReady) {
				held++
			}
		}
		if held != t.iqHeld {
			return fmt.Errorf("cycle %d, threadlet %d: iqHeld = %d, %d ROB entries wait to issue",
				m.now, t.id, t.iqHeld, held)
		}
		used += held
	}
	if used != m.iqUsed {
		return fmt.Errorf("cycle %d: iqUsed = %d, %d ROB entries wait to issue", m.now, m.iqUsed, used)
	}
	return nil
}

// runCountingSquashRecycles steps m to its halt and counts the squashed
// instructions that were recycled as they left limbo. Each cycle ends with
// limboPrev holding the instructions the next cycle releases; one whose
// generation has moved by the end of that cycle went back to the free list.
// After every cycle it also checks the disambiguation index against the ROB
// slices (lsqIndexError) and the IQ occupancy counts (iqAccountingError).
func runCountingSquashRecycles(m *Machine) (uint64, error) {
	var recycled uint64
	var leaving []instRef
	for !m.halted {
		switch {
		case m.memFault != nil:
			return recycled, m.memFault
		case m.wdErr != nil:
			return recycled, m.wdErr
		case m.now-m.lastArchCommit > m.wd.NoCommitWindow:
			return recycled, m.progressError(ProgressNoCommit)
		}
		m.cycle()
		if err := lsqIndexError(m); err != nil {
			return recycled, err
		}
		if err := iqAccountingError(m); err != nil {
			return recycled, err
		}
		for _, r := range leaving {
			if r.stale() {
				recycled++
			}
		}
		leaving = leaving[:0]
		for _, e := range m.limboPrev {
			leaving = append(leaving, e.ref())
		}
	}
	return recycled, m.memFault
}

// TestIQAccountingSurvivesSameCycleRollback: on tonto a store's conflict
// check rolls its threadlet back while younger instructions of the same
// issue batch are still to execute. Those are squashed and hand back their
// IQ entries in the rollback; issuing them anyway released the entries a
// second time and let the IQ grow past its size. The per-cycle check of
// runCountingSquashRecycles holds the counts to the ROB contents.
func TestIQAccountingSurvivesSameCycleRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a full detailed kernel with a per-cycle check")
	}
	prog := workloads.ByName(workloads.CPU2006(), "tonto").MustProgram()
	oracle := ref.MustRun(prog, ref.Options{})
	m, err := NewMachine(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCountingSquashRecycles(m); err != nil {
		t.Fatal(err)
	}
	if diff := oracle.Mem.Diff(m.Memory()); diff != "" {
		t.Fatalf("memory differs from reference:\n%s", diff)
	}
}

// TestDetailedRunAllocationBudget: a detailed LoopFrog run allocates almost
// nothing per committed instruction once its machine is built — rings,
// recycled instructions and reused scratch slices carry the steady state.
func TestDetailedRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full detailed kernel")
	}
	prog := workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram()
	m, err := NewMachine(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perInst := float64(after.Mallocs-before.Mallocs) / float64(st.ArchInsts)
	t.Logf("%d mallocs over %d committed instructions: %.4f per instruction",
		after.Mallocs-before.Mallocs, st.ArchInsts, perInst)
	if perInst >= 0.1 {
		t.Errorf("%.3f mallocs per committed instruction, budget 0.1", perInst)
	}
}
