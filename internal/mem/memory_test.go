package mem

import (
	"testing"
	"testing/quick"

	"loopfrog/internal/asm"
)

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	if got := m.Read(0x1234560, 8); got != 0 {
		t.Errorf("unwritten memory reads %#x, want 0", got)
	}
	if got := m.Footprint(); got != 0 {
		t.Errorf("read allocated %d pages, want 0", got)
	}
}

func TestMemoryReadWriteSizes(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 8, 0x1122334455667788)
	cases := []struct {
		addr uint64
		size int
		want uint64
	}{
		{0x1000, 1, 0x88},
		{0x1001, 1, 0x77},
		{0x1000, 2, 0x7788},
		{0x1002, 2, 0x5566},
		{0x1000, 4, 0x55667788},
		{0x1004, 4, 0x11223344},
		{0x1000, 8, 0x1122334455667788},
	}
	for _, c := range cases {
		if got := m.Read(c.addr, c.size); got != c.want {
			t.Errorf("Read(%#x, %d) = %#x, want %#x", c.addr, c.size, got, c.want)
		}
	}
	m.Write(0x1002, 2, 0xaabb)
	if got := m.Read(0x1000, 8); got != 0x11223344aabb7788 {
		t.Errorf("merged read = %#x, want 0x11223344aabb7788", got)
	}
}

func TestMemoryCrossPageBytes(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3)
	payload := []byte{1, 2, 3, 4, 5, 6}
	m.WriteBytes(addr, payload)
	got := m.ReadBytes(addr, len(payload))
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], payload[i])
		}
	}
	if m.Footprint() != 2 {
		t.Errorf("footprint = %d, want 2 pages", m.Footprint())
	}
}

func TestMemoryAlignmentPanics(t *testing.T) {
	m := NewMemory()
	for _, c := range []struct {
		addr uint64
		size int
	}{{1, 2}, {2, 4}, {4, 8}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Read(%#x, %d) did not panic", c.addr, c.size)
				}
			}()
			m.Read(c.addr, c.size)
		}()
	}
}

func TestMemoryCloneIsDeep(t *testing.T) {
	m := NewMemory()
	m.Write(0x100, 8, 42)
	c := m.Clone()
	m.Write(0x100, 8, 43)
	if got := c.Read(0x100, 8); got != 42 {
		t.Errorf("clone observed mutation: %d", got)
	}
	if m.Equal(c) {
		t.Error("Equal reports true after divergence")
	}
}

func TestMemoryEqualTreatsAbsentAsZero(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	b.Write(0x5000, 8, 0) // allocates a page full of zeros
	if !a.Equal(b) {
		t.Errorf("zero page != absent page:\n%s", a.Diff(b))
	}
	b.Write(0x5000, 1, 7)
	if a.Equal(b) {
		t.Error("Equal missed a real difference")
	}
	if d := a.Diff(b); d == "" {
		t.Error("Diff returned empty for differing memories")
	}
}

func TestMemoryLoadProgram(t *testing.T) {
	p := asm.MustAssemble("t", `
        .data
v:      .quad 0xdeadbeef
        .text
main:   halt
`)
	m := NewMemory()
	m.LoadProgram(p)
	if got := m.Read(p.MustSymbol("v"), 8); got != 0xdeadbeef {
		t.Errorf("loaded data = %#x, want 0xdeadbeef", got)
	}
}

func TestMemoryReadWriteProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, sizeSel uint8, v uint64) bool {
		size := 1 << (sizeSel % 4)
		addr &^= uint64(size - 1) // align
		addr %= 1 << 40           // keep the page map small-ish
		m.Write(addr, size, v)
		want := v
		if size < 8 {
			want = v & (1<<(8*size) - 1)
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoadProgramSkipsZeroPages(t *testing.T) {
	m := NewMemory()
	m.LoadProgram(&asm.Program{DataBase: 0x10000, Data: make([]byte, 5*pageSize+17)})
	if got := m.Footprint(); got != 0 {
		t.Errorf("all-zero segment allocated %d pages, want 0", got)
	}
}

func TestLoadProgramSparseUnaligned(t *testing.T) {
	// The segment starts 5 bytes before a page boundary and spans five pages.
	// Two non-zero pairs straddle page boundaries; the fourth page holds only
	// zeros and must not be allocated.
	base := uint64(3*pageSize - 5)
	data := make([]byte, 4*pageSize)
	for i, at := range []int{0, 4, 5, pageSize + 4, pageSize + 5, len(data) - 1} {
		data[at] = byte(i + 1)
	}
	m := NewMemory()
	m.LoadProgram(&asm.Program{DataBase: base, Data: data})
	got := m.ReadBytes(base, len(data))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d at %#x = %#x, want %#x", i, base+uint64(i), got[i], data[i])
		}
	}
	if fp := m.Footprint(); fp != 4 {
		t.Errorf("footprint = %d pages, want 4 (the all-zero page skipped)", fp)
	}
}

func TestLoadProgramOverwritesResidentPages(t *testing.T) {
	m := NewMemory()
	m.Write(0x2000, 8, 0x1122334455667788)
	m.Write(0x3ff8, 8, 0xffff)
	m.LoadProgram(&asm.Program{DataBase: 0x2000, Data: make([]byte, 2*pageSize)})
	if got := m.Read(0x2000, 8); got != 0 {
		t.Errorf("resident page kept %#x under a zero load, want 0", got)
	}
	if got := m.Read(0x3ff8, 8); got != 0 {
		t.Errorf("second resident page kept %#x under a zero load, want 0", got)
	}
	if got := m.Footprint(); got != 2 {
		t.Errorf("footprint = %d pages, want the 2 already resident", got)
	}
}
