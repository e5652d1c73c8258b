package mem

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// cowOp is one step of a random access trace, at a global cycle.
type cowOp struct {
	kind int // 0 load, 1 store, 2 fetch, 3 snoop
	pc   int
	addr uint64
	at   int64
	inv  bool
}

// cowTrace builds a deterministic trace whose addresses spread over many L2
// chunks (and revisit them), with time moving forward in small random steps
// so fills are often still in flight.
func cowTrace(seed int64, n int) []cowOp {
	r := rand.New(rand.NewSource(seed))
	ops := make([]cowOp, n)
	var now int64 = 1
	for i := range ops {
		now += int64(r.Intn(16))
		ops[i] = cowOp{
			kind: r.Intn(4),
			pc:   r.Intn(16),
			addr: uint64(r.Intn(1<<14)) &^ 7, // a hot set that fits the L1D
			at:   now,
			inv:  r.Intn(2) == 0,
		}
		if ops[i].kind == 3 && r.Intn(4) != 0 {
			ops[i].kind = 0 // keep snoops rare
		}
		switch r.Intn(4) {
		case 0:
			ops[i].addr = uint64(r.Intn(1<<22)) &^ 7 // spread over the L2
		case 1:
			// Strided runs train the prefetchers.
			ops[i].addr = uint64(0x100000 + 64*i)
		}
	}
	return ops
}

// apply runs op on h with its time shifted by -off and returns the result,
// shifted back into global time.
func (op cowOp) apply(h *Hierarchy, off int64) (int64, bool) {
	now := op.at - off
	switch op.kind {
	case 0:
		done, ok := h.Load(op.pc, op.addr, now)
		if !ok {
			return 0, false
		}
		return done + off, true
	case 1:
		stall, ok := h.Store(op.addr, now)
		return stall, ok
	case 2:
		return h.Fetch(op.addr, now) + off, true
	default:
		return 0, h.Snoop(op.addr, op.inv)
	}
}

func (s CacheStats) minus(o CacheStats) CacheStats {
	return CacheStats{
		Accesses:        s.Accesses - o.Accesses,
		Hits:            s.Hits - o.Hits,
		Misses:          s.Misses - o.Misses,
		MSHRMergeHits:   s.MSHRMergeHits - o.MSHRMergeHits,
		MSHRStalls:      s.MSHRStalls - o.MSHRStalls,
		Writebacks:      s.Writebacks - o.Writebacks,
		PrefetchIssued:  s.PrefetchIssued - o.PrefetchIssued,
		PrefetchUseful:  s.PrefetchUseful - o.PrefetchUseful,
		SnoopInvalidate: s.SnoopInvalidate - o.SnoopInvalidate,
	}
}

// TestCloneAtMatchesOriginal: a clone taken at `now` behaves exactly like
// the original shifted by -now, whichever of the two touches a shared chunk
// first. Forks are taken from random existing versions, so clones of clones
// and clones of already-cloned hierarchies are covered, and every version
// keeps running after it is cloned.
func TestCloneAtMatchesOriginal(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		type version struct {
			h     *Hierarchy
			off   int64 // global cycle that is this version's cycle 0
			base  [3]CacheStats
			dram0 uint64
		}
		r := rand.New(rand.NewSource(seed))
		ops := cowTrace(seed, 20000)
		orig := &version{h: NewHierarchy(DefaultHierConfig())}
		versions := []*version{orig}
		for i, op := range ops {
			if i > 0 && i%2500 == 0 {
				p := versions[r.Intn(len(versions))]
				v := &version{h: p.h.CloneAt(op.at - p.off), off: op.at, dram0: orig.h.DRAMAccesses}
				v.base[0], v.base[1], v.base[2] = orig.h.Stats()
				versions = append(versions, v)
			}
			want, wantOK := op.apply(orig.h, 0)
			for vi, v := range versions[1:] {
				if got, ok := op.apply(v.h, v.off); got != want || ok != wantOK {
					t.Fatalf("seed %d, op %d (%+v): version %d (forked at %d) = (%d, %v), original (%d, %v)",
						seed, i, op, vi+1, v.off, got, ok, want, wantOK)
				}
			}
		}
		l1i, l1d, l2 := orig.h.Stats()
		for vi, v := range versions[1:] {
			gi, gd, g2 := v.h.Stats()
			if gi != l1i.minus(v.base[0]) || gd != l1d.minus(v.base[1]) || g2 != l2.minus(v.base[2]) {
				t.Errorf("seed %d, version %d: stats %+v %+v %+v, want the original's increase %+v %+v %+v",
					seed, vi+1, gi, gd, g2, l1i.minus(v.base[0]), l1d.minus(v.base[1]), l2.minus(v.base[2]))
			}
			if got, want := v.h.DRAMAccesses, orig.h.DRAMAccesses-v.dram0; got != want {
				t.Errorf("seed %d, version %d: %d DRAM accesses, want %d", seed, vi+1, got, want)
			}
		}
		if l2.Misses == 0 || l2.Hits == 0 || l1d.MSHRMergeHits == 0 || l2.PrefetchIssued == 0 {
			t.Errorf("seed %d: trace too tame: l1d %+v l2 %+v", seed, l1d, l2)
		}
	}
}

// TestCloneIsolation: after a clone, lines either side brings in stay its
// own, down a chain of clones, while the state from before the fork stays
// visible to both.
func TestCloneIsolation(t *testing.T) {
	const shared, inParent, inChild, inGrandchild = 0x1000, 0x200000, 0x300000, 0x380000
	parent := smallHier()
	parent.Load(0, shared, 0)
	child := parent.CloneAt(1000)
	parent.Load(0, inParent, 1000)
	child.Load(0, inChild, 0)
	grandchild := child.CloneAt(500)
	grandchild.Load(0, inGrandchild, 0)
	child.Store(shared, 600)

	for _, c := range []struct {
		name string
		h    *Hierarchy
		has  map[uint64]bool
	}{
		{"parent", parent, map[uint64]bool{shared: true, inParent: true}},
		{"child", child, map[uint64]bool{shared: true, inChild: true}},
		{"grandchild", grandchild, map[uint64]bool{shared: true, inChild: true, inGrandchild: true}},
	} {
		for _, a := range []uint64{shared, inParent, inChild, inGrandchild} {
			if got := c.h.Contains(a); got != c.has[a] {
				t.Errorf("%s holds %#x = %v, want %v", c.name, a, got, c.has[a])
			}
		}
	}
	// The child's store dirtied only its own copy of the shared line.
	for name, h := range map[string]*Hierarchy{"parent": parent, "grandchild": grandchild} {
		if ln := h.l1d.probe(h.l1d.block(shared)); ln == nil || ln.dirty {
			t.Errorf("%s's copy of the shared line: %+v, want clean", name, ln)
		}
	}
}

// TestConcurrentClonesOfOneCheckpoint: the sampled driver starts several
// windows from one checkpoint at once. Each clone must see the same warm
// state and be free to run; `go test -race` checks the sharing.
func TestConcurrentClonesOfOneCheckpoint(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	ops := cowTrace(9, 4000)
	for _, op := range ops[:2000] {
		op.apply(h, 0)
	}
	fork := ops[2000].at
	ckpt := h.CloneAt(fork)
	rest := ops[2000:]

	const workers = 8
	results := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := ckpt.CloneAt(0)
			for _, op := range rest {
				done, _ := op.apply(c, fork)
				results[w] = append(results[w], done)
			}
		}(w)
	}
	// The checkpoint's source keeps running meanwhile, as fastsim does.
	var want []int64
	for _, op := range rest {
		done, _ := op.apply(h, 0)
		want = append(want, done)
	}
	wg.Wait()
	for w, got := range results {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("worker %d, op %d: %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

// TestNewHierarchyAllocatesLinesOnTouch: building a hierarchy allocates no
// tag storage; the first access to a level allocates its chunks then.
func TestNewHierarchyAllocatesLinesOnTouch(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := NewHierarchy(DefaultHierConfig())
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("NewHierarchy allocated %d bytes, want no line storage (< 64 KiB)", n)
	}
	touched := func(l *level) (n int) {
		for _, c := range l.chunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	for _, l := range []*level{h.l1i, h.l1d, h.l2} {
		if n := touched(l); n != 0 {
			t.Errorf("%s: %d chunks before any access", l.cfg.Name, n)
		}
	}
	h.Load(0, 0x1000, 0)
	// The L2's next-line prefetch of 0x1040 lands in the same chunk.
	if a, b, c := touched(h.l1i), touched(h.l1d), touched(h.l2); a != 0 || b != 1 || c != 1 {
		t.Errorf("after one load: l1i/l1d/l2 chunks %d/%d/%d, want 0/1/1", a, b, c)
	}
}
