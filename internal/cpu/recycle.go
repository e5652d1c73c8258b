package cpu

// Hot-loop memory discipline: queue rings allocated once per context and a
// per-machine dynInst free list keep the pipeline's steady state
// allocation-free (ownership rule on dynInst).

// ring is a fixed-capacity FIFO over a backing array allocated once: a
// threadlet's fetch queue, ROB slice and store drain queue. Entry 0 is the
// oldest. The capacity is the structure's architectural bound, so
// overflowing it is a model bug.
type ring[T any] struct {
	buf     []T
	head, n int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, max(capacity, 1))} }

func (r *ring[T]) len() int { return r.n }

// at returns the i-th oldest entry.
func (r *ring[T]) at(i int) T {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// front points at the oldest entry's slot.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		panic("cpu: ring overflow")
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// pop drops the oldest entry.
func (r *ring[T]) pop() {
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// truncate keeps the n oldest entries.
func (r *ring[T]) truncate(n int) { r.n = n }

// newInst takes an instruction off the free list; the caller resets it,
// keeping gen and the waiters/ckptWaiters backing arrays.
func (m *Machine) newInst() *dynInst {
	n := len(m.freeInsts)
	if n == 0 {
		return new(dynInst)
	}
	e := m.freeInsts[n-1]
	m.freeInsts = m.freeInsts[:n-1]
	return e
}

// setMap stores me into a rename-map slot, moving the producer names.
func (m *Machine) setMap(slot *mapEntry, me mapEntry) {
	if me.prod != nil {
		me.prod.refs++
	}
	old := slot.prod
	*slot = me
	if old != nil {
		m.unref(old)
	}
}

// releaseMap drops every name a dead context's rename map holds.
func (m *Machine) releaseMap(t *threadlet) {
	for r := range t.renameMap {
		m.setMap(&t.renameMap[r], mapEntry{})
	}
}

// dropOldMap releases e's rollback copy of the slot it overwrote: dead once
// e commits, and at recycle for a squashed e.
func (m *Machine) dropOldMap(e *dynInst) {
	if p := e.oldMap.prod; p != nil {
		e.oldMap = mapEntry{}
		m.unref(p)
	}
}

func (m *Machine) unref(e *dynInst) {
	if e.refs--; e.refs == 0 && e.gone {
		m.recycle(e)
	} else if e.refs < 0 {
		panic("cpu: dynInst reference count underflow")
	}
}

// leave marks e as gone from the machine and recycles it once unnamed.
func (m *Machine) leave(e *dynInst) {
	if e.gone {
		panic("cpu: dynInst left the machine twice")
	}
	e.gone = true
	if e.refs == 0 {
		m.recycle(e)
	}
}

// releaseLimbo runs at the end of every cycle: instructions squashed during
// the previous one have by now been dropped from every pipeline queue.
func (m *Machine) releaseLimbo() {
	for _, e := range m.limboPrev {
		m.leave(e)
	}
	m.limboPrev, m.limbo = m.limbo, m.limboPrev[:0]
}

// recycle poisons e and returns it to the free list.
func (m *Machine) recycle(e *dynInst) {
	m.dropOldMap(e)
	e.gen++
	e.squashed = true
	m.freeInsts = append(m.freeInsts, e)
}
