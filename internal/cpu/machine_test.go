package cpu

import (
	"fmt"
	"strings"
	"testing"

	"loopfrog/internal/asm"
	"loopfrog/internal/isa"
	"loopfrog/internal/ref"
)

// runMachine runs prog on a machine with cfg and cross-checks the final
// architectural state against the reference interpreter.
func runMachine(t *testing.T, cfg Config, prog *asm.Program) *Stats {
	t.Helper()
	m, err := NewMachine(cfg, prog)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkReference(t, prog, m)
	return stats
}

// checkReference compares a halted machine's final registers and memory
// with the reference interpreter's.
func checkReference(t *testing.T, prog *asm.Program, m *Machine) {
	t.Helper()
	oracle := ref.MustRun(prog, ref.Options{})
	regs := m.FinalRegs()
	for r := 0; r < isa.NumRegs; r++ {
		if regs[r] != oracle.Regs[r] {
			t.Errorf("reg %s = %#x, want %#x (reference)", isa.Reg(r), regs[r], oracle.Regs[r])
		}
	}
	if diff := oracle.Mem.Diff(m.Memory()); diff != "" {
		t.Errorf("final memory differs from reference:\n%s", diff)
	}
}

// runBoth runs baseline and LoopFrog configurations, checking both against
// the reference, and returns (baseline, loopfrog) stats.
func runBoth(t *testing.T, prog *asm.Program) (*Stats, *Stats) {
	t.Helper()
	base := runMachine(t, BaselineConfig(), prog)
	lf := runMachine(t, DefaultConfig(), prog)
	return base, lf
}

func TestStraightLineArithmetic(t *testing.T) {
	prog := asm.MustAssemble("arith", `
main:   li   a0, 6
        li   a1, 7
        mul  a2, a0, a1
        addi a3, a2, -2
        xor  a4, a3, a0
        div  a5, a2, a1
        halt
`)
	stats := runMachine(t, BaselineConfig(), prog)
	if stats.ArchInsts != 7 {
		t.Errorf("arch insts = %d, want 7", stats.ArchInsts)
	}
}

func TestSimpleLoopBaseline(t *testing.T) {
	prog := asm.MustAssemble("loop", `
main:   li   t0, 0
        li   t1, 100
        li   a0, 0
loop:   add  a0, a0, t0
        addi t0, t0, 1
        blt  t0, t1, loop
        halt
`)
	stats := runMachine(t, BaselineConfig(), prog)
	if stats.Branches != 100 {
		t.Errorf("committed branches = %d, want 100", stats.Branches)
	}
	// The loop predictor or TAGE should keep mispredicts minimal.
	if stats.Mispredicts > 5 {
		t.Errorf("mispredicts = %d, want few on a counted loop", stats.Mispredicts)
	}
}

func TestMemoryOpsBaseline(t *testing.T) {
	prog := asm.MustAssemble("memops", `
        .data
buf:    .zero 128
        .text
main:   la   a0, buf
        li   t0, 0
        li   t1, 16
fill:   slli t2, t0, 3
        add  t2, a0, t2
        sd   t0, 0(t2)
        addi t0, t0, 1
        blt  t0, t1, fill
        li   t0, 0
        li   a1, 0
sum:    slli t2, t0, 3
        add  t2, a0, t2
        ld   t3, 0(t2)
        add  a1, a1, t3
        addi t0, t0, 1
        blt  t0, t1, sum
        halt
`)
	runMachine(t, BaselineConfig(), prog)
}

func TestStoreToLoadForwarding(t *testing.T) {
	prog := asm.MustAssemble("fwd", `
        .data
v:      .quad 0
        .text
main:   la   a0, v
        li   t0, 41
        sd   t0, 0(a0)
        ld   t1, 0(a0)      # must forward from the store
        addi a1, t1, 1
        halt
`)
	runMachine(t, BaselineConfig(), prog)
}

func TestPartialOverlapStoreLoad(t *testing.T) {
	prog := asm.MustAssemble("partial", `
        .data
v:      .quad 0x1111111111111111
        .text
main:   la   a0, v
        li   t0, 0xff
        sb   t0, 2(a0)      # byte store into the middle
        ld   t1, 0(a0)      # partially overlapping load must wait
        halt
`)
	runMachine(t, BaselineConfig(), prog)
}

func TestCallReturn(t *testing.T) {
	prog := asm.MustAssemble("call", `
main:   li   a0, 1
        call f
        call f
        call f
        halt
f:      slli a0, a0, 1
        ret
`)
	runMachine(t, BaselineConfig(), prog)
}

func TestIndirectJumpThroughTable(t *testing.T) {
	prog := asm.MustAssemble("indirect", `
main:   li   s0, 0          # result accumulator
        li   s1, 0          # i
        li   s2, 12
loop:   andi t0, s1, 1
        la   t1, even
        beqz t0, go
        la   t1, odd
go:     jalr ra, t1, 0
        addi s1, s1, 1
        blt  s1, s2, loop
        halt
even:   addi s0, s0, 1
        ret
odd:    addi s0, s0, 100
        ret
`)
	runMachine(t, BaselineConfig(), prog)
}

func TestDataDependentBranches(t *testing.T) {
	// Pseudo-random data defeats the direction predictor; results must still
	// be exact.
	prog := asm.MustAssemble("branchy", `
        .data
seed:   .quad 12345
        .text
main:   la   a0, seed
        ld   t0, 0(a0)
        li   s0, 0
        li   s1, 0
        li   s2, 200
        li   t4, 2862933555777941757
        li   t5, 3037000493
loop:   mul  t0, t0, t4
        add  t0, t0, t5
        srli t1, t0, 60
        andi t2, t1, 1
        beqz t2, skip
        addi s0, s0, 3
skip:   addi s1, s1, 1
        blt  s1, s2, loop
        halt
`)
	stats := runMachine(t, BaselineConfig(), prog)
	if stats.Mispredicts < 20 {
		t.Errorf("mispredicts = %d; expected many on random branches", stats.Mispredicts)
	}
}

// hintedMapSrc is a contract-correct LoopFrog loop: the body consumes only
// header values (the element address) and writes its result to memory; all
// register loop-carried dependencies (the index) live in the continuation.
// The tail clears body temporaries, which the compiler knows are dead, so
// the full register state matches sequential execution exactly.
const hintedMapSrc = `
        .data
arr:    .zero 8192
out:    .zero 8192
        .text
main:   la   a0, arr
        la   a1, out
        li   t0, 0
        li   t1, 1024
init:   slli t2, t0, 3
        add  t2, a0, t2
        sd   t0, 0(t2)
        addi t0, t0, 1
        blt  t0, t1, init
        li   t0, 0
loop:   slli t2, t0, 3
        add  t3, a0, t2
        add  t4, a1, t2
        detach cont
        ld   t5, 0(t3)
        mul  t5, t5, t5
        addi t5, t5, 7
        sd   t5, 0(t4)
        reattach cont
cont:   addi t0, t0, 1
        blt  t0, t1, loop
        sync cont
        li   t5, 0          # body temps are dead; normalise them
        halt
`

func TestHintedLoopBaselineTreatsHintsAsNops(t *testing.T) {
	prog := asm.MustAssemble("hinted", hintedMapSrc)
	stats := runMachine(t, BaselineConfig(), prog)
	if stats.Spawns != 0 {
		t.Errorf("baseline spawned %d threadlets", stats.Spawns)
	}
	if stats.Detaches == 0 {
		t.Error("baseline did not see the detach hints")
	}
}

func TestHintedLoopLoopFrogParallelises(t *testing.T) {
	prog := asm.MustAssemble("hinted", hintedMapSrc)
	cfg := DefaultConfig()
	cfg.Pack.Enabled = false // exercise plain spawning first
	stats := runMachine(t, cfg, prog)
	if stats.Spawns == 0 {
		t.Fatal("LoopFrog never spawned a threadlet")
	}
	if stats.Retires == 0 {
		t.Fatal("no threadlet ever retired")
	}
	multi := uint64(0)
	for k := 1; k < len(stats.LiveCycles); k++ {
		multi += stats.LiveCycles[k]
	}
	if multi == 0 {
		t.Error("never had more than one live threadlet")
	}
}

func TestHintedLoopSpeedsUp(t *testing.T) {
	prog := asm.MustAssemble("hinted", hintedMapSrc)
	base, lf := runBoth(t, prog)
	if lf.Cycles >= base.Cycles {
		t.Errorf("LoopFrog %d cycles vs baseline %d: no speedup on an independent-iteration loop",
			lf.Cycles, base.Cycles)
	}
}

// TestRAWConflictSquashes builds a loop with a guaranteed cross-iteration
// memory dependence through a single accumulator cell: every speculative
// body read of the cell races the prior iteration's write.
func TestRAWConflictSquashes(t *testing.T) {
	prog := asm.MustAssemble("rawdep", `
        .data
cell:   .quad 0
        .text
main:   la   a0, cell
        li   t0, 0
        li   t1, 300
loop:   detach cont
        ld   t3, 0(a0)      # reads the previous iteration's store
        addi t3, t3, 1
        sd   t3, 0(a0)
        reattach cont
cont:   addi t0, t0, 1
        blt  t0, t1, loop
        sync cont
        li   t3, 0          # body temp is dead after the loop
        ld   a1, 0(a0)
        halt
`)
	_, lf := runBoth(t, prog)
	// Either conflicts fired (and were correctly recovered) or the monitor
	// de-selected the region; both must preserve the final value (checked by
	// runBoth) and the final value must be 300.
	if lf.Squashes[0] == 0 && lf.Spawns > 4 {
		t.Errorf("many spawns (%d) but no conflict squashes on a serial dependence", lf.Spawns)
	}
}

func TestLoopWithEarlyExit(t *testing.T) {
	// The loop exits via a break-style branch; sync must cancel successors
	// without corrupting state.
	prog := asm.MustAssemble("earlyexit", `
        .data
arr:    .zero 2048
outv:   .zero 2048
        .text
main:   la   a0, arr
        li   t0, 0
        li   t1, 256
        li   t5, 777
init:   slli t2, t0, 3
        add  t2, a0, t2
        sd   t0, 0(t2)
        addi t0, t0, 1
        blt  t0, t1, init
        # plant a sentinel at index 100
        li   t3, 100
        slli t3, t3, 3
        add  t3, a0, t3
        sd   t5, 0(t3)
        la   a1, outv
        li   t0, 0
loop:   slli t2, t0, 3
        add  t2, a0, t2
        slli t4, t0, 3
        add  t4, a1, t4
        detach cont
        ld   t3, 0(t2)
        beq  t3, t5, found
        sd   t3, 0(t4)
        reattach cont
cont:   addi t0, t0, 1
        blt  t0, t1, loop
        sync cont
        j    done
found:  sync cont
        li   a2, 1
done:   li   t3, 0          # body temp is dead after the loop
        halt
`)
	runBoth(t, prog)
}

func TestNestedLoopsOnlyOuterParallel(t *testing.T) {
	prog := asm.MustAssemble("nested", `
        .data
m:      .zero 4096
        .text
main:   la   a0, m
        li   s0, 0          # i
        li   s1, 16
outer:  detach ocont
        li   s3, 0          # j
        li   s4, 32
        slli t0, s0, 8      # row base = i*256
        add  t0, a0, t0
inner:  slli t1, s3, 3
        add  t1, t0, t1
        mul  t2, s0, s4
        add  t2, t2, s3
        sd   t2, 0(t1)
        addi s3, s3, 1
        blt  s3, s4, inner
        reattach ocont
ocont:  addi s0, s0, 1
        blt  s0, s1, outer
        sync ocont
        li   s3, 0          # body (inner-loop) temps are dead
        li   s4, 0
        li   t0, 0
        li   t1, 0
        li   t2, 0
        halt
`)
	base, lf := runBoth(t, prog)
	if lf.Spawns == 0 {
		t.Error("outer loop never parallelised")
	}
	if lf.Cycles >= base.Cycles {
		t.Errorf("no speedup on independent outer loop: %d vs %d", lf.Cycles, base.Cycles)
	}
}

func TestPointerChaseWithHints(t *testing.T) {
	// A linked-list traversal: the continuation carries p = p->next. Bodies
	// are independent (write to disjoint cells).
	prog := asm.MustAssemble("chase", `
        .data
out:    .zero 4096
nodes:  .zero 8192
        .text
main:   la   a0, nodes
        li   t0, 0
        li   t1, 256
        # build list: node i at a0+i*32, next = a0+(i+1)*32, val = i
build:  slli t2, t0, 5
        add  t2, a0, t2
        addi t3, t2, 32
        sd   t3, 0(t2)      # next
        sd   t0, 8(t2)      # value
        addi t0, t0, 1
        blt  t0, t1, build
        # terminate list
        li   t4, 255
        slli t2, t4, 5
        add  t2, a0, t2
        sd   x0, 0(t2)
        # traverse
        la   a1, out
        la   s0, nodes      # p
        li   s1, 0          # idx
trav:   beqz s0, travend
        detach cont
        ld   t5, 8(s0)      # p->value
        mul  t5, t5, t5
        slli t6, s1, 3
        add  t6, a1, t6
        sd   t5, 0(t6)
        reattach cont
cont:   ld   s0, 0(s0)      # p = p->next (register LCD in continuation)
        addi s1, s1, 1
        bnez s0, trav
        sync cont
travend: li  t5, 0           # body temps are dead after the loop
        li  t6, 0
        halt
`)
	runBoth(t, prog)
}

func TestSpecHaltStallsUntilArchitectural(t *testing.T) {
	// A successor threadlet speculatively reaches HALT; it must not end the
	// simulation until it becomes architectural.
	prog := asm.MustAssemble("lasthalt", `
        .data
arr:    .zero 64
        .text
main:   la   a0, arr
        li   t0, 0
        li   t1, 4          # tiny trip count: successor sees the exit fast
loop:   slli t2, t0, 3
        add  t2, a0, t2
        detach cont
        sd   t0, 0(t2)
        reattach cont
cont:   addi t0, t0, 1
        blt  t0, t1, loop
        sync cont
        li   t2, 0          # body temps are dead after the loop
        li   t3, 0
        fcvtif f0, x0
        fcvtif f2, x0
        halt
`)
	runBoth(t, prog)
}

func TestWidthSweepMonotonicIPC(t *testing.T) {
	prog := asm.MustAssemble("ilp", `
main:   li   t0, 0
        li   t1, 2000
        li   a1, 1
        li   a2, 2
        li   a3, 3
        li   a4, 4
loop:   add  a1, a1, a2
        add  a2, a2, a3
        add  a3, a3, a4
        add  a4, a4, a1
        xor  a5, a1, a2
        xor  a6, a3, a4
        addi t0, t0, 1
        blt  t0, t1, loop
        halt
`)
	var last float64
	for _, w := range []int{2, 4, 8} {
		cfg := BaselineConfig().WithWidth(w)
		stats := runMachine(t, cfg, prog)
		ipc := stats.IPC()
		if ipc < last {
			t.Errorf("IPC decreased with width %d: %.2f < %.2f", w, ipc, last)
		}
		last = ipc
	}
	if last < 2.0 {
		t.Errorf("8-wide IPC = %.2f; expected ILP-rich loop to exceed 2", last)
	}
}

func TestExternalSnoopSquashesConflictingThreadlet(t *testing.T) {
	prog := asm.MustAssemble("snooped", hintedMapSrc)
	cfg := DefaultConfig()
	m, err := NewMachine(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Run some cycles, then snoop-write a line the loop reads.
	arrBase := prog.MustSymbol("arr")
	snooped := false
	for i := 0; i < 400_000 && !m.halted; i++ {
		m.cycle()
		if i == 2000 {
			m.ExternalSnoop(arrBase+512*8, true)
			snooped = true
		}
	}
	if !m.halted {
		t.Fatal("machine did not halt")
	}
	if !snooped {
		t.Fatal("snoop never injected")
	}
	oracle := ref.MustRun(prog, ref.Options{})
	if diff := oracle.Mem.Diff(m.Memory()); diff != "" {
		t.Errorf("memory after snoop differs from reference:\n%s", diff)
	}
}

func TestFloatingPointKernel(t *testing.T) {
	prog := asm.MustAssemble("fpkern", `
        .data
xs:     .zero 2048
acc:    .double 0.0
        .text
main:   la   a0, xs
        li   t0, 0
        li   t1, 256
        fcvtif f3, t1
init:   fcvtif f0, t0
        slli t2, t0, 3
        add  t2, a0, t2
        fsd  f0, 0(t2)
        addi t0, t0, 1
        blt  t0, t1, init
        li   t0, 0
        la   a1, acc
        fld  f1, 0(a1)
loop:   slli t2, t0, 3
        add  t2, a0, t2
        detach cont
        fld  f0, 0(t2)
        fmul f2, f0, f0
        fdiv f2, f2, f3
        fsqrt f2, f2
        slli t3, t0, 3
        add  t3, a0, t3
        fsd  f2, 0(t3)
        reattach cont
cont:   addi t0, t0, 1
        blt  t0, t1, loop
        sync cont
        li   t2, 0          # body temps are dead after the loop
        li   t3, 0
        fcvtif f0, x0
        fcvtif f2, x0
        halt
`)
	runBoth(t, prog)
}

// loadTrace is what watchLoad saw of one static load.
type loadTrace struct {
	// forwards lists, per forwarding execution, the label of the store the
	// load forwarded from and whether that store sat in the post-commit
	// drain queue rather than the ROB slice.
	forwards []loadForward
	replayed bool // the load waited in the replay queue at least once
	// instances counts the dynamic instances (dispatches) seen per label:
	// an instruction squashed and re-fetched counts twice.
	instances map[string]int
}

type loadForward struct {
	from      string
	fromDrain bool
}

// watchLoad steps prog to its halt on a baseline machine, checking the final
// state against the reference interpreter, and traces how the load at label
// load disambiguated against older stores. Programs are straight-line, so
// the single threadlet's ROB slice and drain queue hold every store the load
// can meet.
func watchLoad(t *testing.T, prog *asm.Program, load string) (*Stats, loadTrace) {
	t.Helper()
	labelAt := map[int]string{}
	for name, pc := range prog.Labels {
		labelAt[pc] = name
	}
	loadPC, ok := prog.Labels[load]
	if !ok {
		t.Fatalf("no label %q", load)
	}
	m, err := NewMachine(BaselineConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	tr := loadTrace{instances: map[string]int{}}
	pcOf := map[uint64]int{} // every dynamic instance seen, by seq
	th := m.threads[0]
	for !m.halted {
		if m.now > 100_000 {
			t.Fatal("machine did not halt")
		}
		m.cycle()
		for _, e := range m.replayQ {
			tr.replayed = tr.replayed || e.pc == loadPC
		}
		for i := 0; i < th.rob.len(); i++ {
			e := th.rob.at(i)
			if _, ok := pcOf[e.seq]; !ok {
				pcOf[e.seq] = e.pc
				tr.instances[labelAt[e.pc]]++
			}
			// A forwarded load completes one cycle after it executes, so it
			// is seen executing exactly once per forwarding execution.
			if e.pc == loadPC && e.loadFwdSQ && e.state == stExecuting {
				inDrain := false
				for j := 0; j < th.drain.len(); j++ {
					inDrain = inDrain || th.drain.at(j).seq == e.fwdSeq
				}
				tr.forwards = append(tr.forwards, loadForward{labelAt[pcOf[e.fwdSeq]], inDrain})
			}
		}
	}
	if m.memFault != nil {
		t.Fatal(m.memFault)
	}
	checkReference(t, prog, m)
	return m.Stats(), tr
}

// TestForwardsFromYoungestOverlappingStore: three older stores all cover the
// load; it must take the youngest one's bytes. A divide chain at the head
// keeps the stores uncommitted, so the forwarding comes from the ROB slice.
func TestForwardsFromYoungestOverlappingStore(t *testing.T) {
	prog := asm.MustAssemble("youngest", `
        .data
v:      .quad 0x1111111111111111
        .text
main:   la   a0, v
        li   t0, 99
        li   t1, 7
        div  t2, t0, t1
        div  t2, t2, t1
        li   t3, 0x22
        li   t4, 0x3333
        li   t5, 0x4444
s1:     sd   t3, 0(a0)
s2:     sw   t4, 0(a0)
s3:     sh   t5, 0(a0)
fwd:    lh   t6, 0(a0)
        halt
`)
	_, tr := watchLoad(t, prog, "fwd")
	if n := len(tr.forwards); n == 0 || tr.forwards[n-1] != (loadForward{from: "s3"}) {
		t.Errorf("forwards = %+v, want the last from s3 in the ROB slice", tr.forwards)
	}
}

// TestPartialOverlapReplaysUntilStorePerforms: a byte store covers only part
// of the doubleword load, so the load cannot forward; it replays until the
// store has drained and then reads memory. A divide at the head holds the
// store uncommitted, and a multiply delays the load's address until the
// store's is known.
func TestPartialOverlapReplaysUntilStorePerforms(t *testing.T) {
	prog := asm.MustAssemble("partialreplay", `
        .data
v:      .quad 0x1111111111111111
        .text
main:   la   a0, v
        li   t0, 0xff
        div  t1, t0, t0
        mul  t2, t0, x0
        add  a1, a0, t2
st:     sb   t0, 2(a0)
ld:     ld   t3, 0(a1)
        halt
`)
	_, tr := watchLoad(t, prog, "ld")
	if !tr.replayed || len(tr.forwards) != 0 {
		t.Errorf("replayed = %v, forwards = %+v; want a replay and no forwarding", tr.replayed, tr.forwards)
	}
}

// TestForwardsFromDrainQueue: the store commits at once, but the drain
// queue is backed up behind 32 cold store misses (more than the L1D write
// buffers), while the load's address waits on a divide. The store is still
// draining when the load executes and must forward from there.
func TestForwardsFromDrainQueue(t *testing.T) {
	var fill strings.Builder
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&fill, "        sd   t0, %d(a2)\n", 64*i)
	}
	prog := asm.MustAssemble("drainfwd", `
        .data
v:      .quad 0x1111111111111111
buf:    .zero 2048
        .text
main:   la   a0, v
        la   a2, buf
        li   t0, 5
        li   t1, 42
`+fill.String()+`
st:     sd   t1, 0(a0)
        div  t2, t0, t0
        addi t2, t2, -1
        add  a1, a0, t2
ld:     ld   t3, 0(a1)
        halt
`)
	_, tr := watchLoad(t, prog, "ld")
	if n := len(tr.forwards); n == 0 || tr.forwards[n-1] != (loadForward{from: "st", fromDrain: true}) {
		t.Errorf("forwards = %+v, want the last from st in the drain queue", tr.forwards)
	}
}

// TestLateStoreAddressRollsBackToOldestOverlappingLoad: the store's address
// resolves behind a divide chain, after two younger loads of the same
// doubleword (and one of another) have read stale memory. The store rolls
// the threadlet back once, to the oldest overlapping load: the
// non-overlapping load before it and the instruction between them survive.
func TestLateStoreAddressRollsBackToOldestOverlappingLoad(t *testing.T) {
	prog := asm.MustAssemble("lsqviolation", `
        .data
v:      .quad 0x1111111111111111
w:      .quad 0x2222222222222222
        .text
main:   la   a0, v
        la   a2, w
        li   t0, 64
        li   t1, 8
        li   t3, 77
        div  t2, t0, t1
        div  t2, t2, t1
        addi t2, t2, -1
        add  a1, a0, t2
st:     sd   t3, 0(a1)
other:  ld   t4, 0(a2)
mark:   addi t5, x0, 3
l1:     ld   t6, 0(a0)
l2:     lw   s1, 4(a0)
        halt
`)
	st, tr := watchLoad(t, prog, "l1")
	if st.LoadReplaysLSQ != 1 {
		t.Errorf("LoadReplaysLSQ = %d, want 1", st.LoadReplaysLSQ)
	}
	for label, want := range map[string]int{"st": 1, "other": 1, "mark": 1, "l1": 2, "l2": 2} {
		if got := tr.instances[label]; got != want {
			t.Errorf("%s dispatched %d times, want %d", label, got, want)
		}
	}
}
