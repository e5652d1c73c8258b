package compiler

import (
	"fmt"
	"math"
	"sort"

	"loopfrog/internal/asm"
)

// Diagnostics collects human-readable compilation notes (e.g. statically
// de-selected @loopfrog loops, §5.1).
type Diagnostics []string

type arrayAlloc struct {
	name   string
	length int64
}

// compilation is cross-function state: the float constant pool, static
// storage for local arrays, and the @loopfrog loop sites encountered.
type compilation struct {
	floatConsts map[uint64]string
	floatOrder  []uint64
	localArrays []arrayAlloc
	sites       []LoopSite
}

// Options parameterise one compilation into a hint variant. The zero value
// is the compiler's static default (every legal @loopfrog loop gets hints).
type Options struct {
	// Deselect holds source lines of @loopfrog loops to compile as plain
	// loops — the hint-placement axis of the autotuner's variant space. Lines
	// not naming an annotated loop are ignored (the variant is simply the
	// static default there), so a mask outlives small source edits.
	Deselect map[int]bool
}

// LoopSite is one @loopfrog-annotated loop the compiler saw: the unit of the
// autotuner's per-loop hint mask. Selected reports whether this compilation
// emitted hints for it; when false, Reason says why (static de-selection or
// the variant mask).
type LoopSite struct {
	// Func is the enclosing function; Line the source line of the `for`.
	Func string `json:"func"`
	Line int    `json:"line"`
	// Selected reports whether hints were emitted for the loop.
	Selected bool `json:"selected"`
	// Reason is empty for selected loops; otherwise the de-selection cause.
	Reason string `json:"reason,omitempty"`
}

func (c *compilation) floatConst(v float64) string {
	bits := math.Float64bits(v)
	if s, ok := c.floatConsts[bits]; ok {
		return s
	}
	s := fmt.Sprintf("fc.%d", len(c.floatOrder))
	c.floatConsts[bits] = s
	c.floatOrder = append(c.floatOrder, bits)
	return s
}

// Compile compiles LoopLang source into a program image with the static
// default hint selection. Diagnostics report loops that asked for @loopfrog
// but could not be parallelised.
func Compile(name, src string) (*asm.Program, Diagnostics, error) {
	return CompileOpts(name, src, Options{})
}

// CompileOpts is Compile parameterised by a hint variant.
func CompileOpts(name, src string, opts Options) (*asm.Program, Diagnostics, error) {
	prog, diags, _, err := compile(name, src, opts)
	return prog, diags, err
}

// Loops reports every @loopfrog loop site in src under the static default
// selection, without building an image. The autotuner enumerates its variant
// space from this list.
func Loops(src string) ([]LoopSite, error) {
	_, _, sites, err := compile("loops", src, Options{})
	return sites, err
}

func compile(name, src string, opts Options) (*asm.Program, Diagnostics, []LoopSite, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, nil, nil, err
	}
	chk, err := check(file)
	if err != nil {
		return nil, nil, nil, err
	}
	ctx := &compilation{floatConsts: make(map[uint64]string)}

	var funcs []*irFunc
	var diags Diagnostics
	for _, fn := range file.Funcs {
		f, err := lowerFunc(chk, ctx, opts, fn)
		if err != nil {
			return nil, nil, nil, err
		}
		diags = append(diags, f.diag...)
		funcs = append(funcs, f)
	}

	b := asm.NewBuilder(name)
	// Code: main first so the entry label exists; others follow.
	sort.SliceStable(funcs, func(i, j int) bool {
		return funcs[i].name == "main" && funcs[j].name != "main"
	})
	for _, f := range funcs {
		al := allocate(f)
		if err := genFunc(f, al, b); err != nil {
			return nil, nil, nil, err
		}
	}

	// Data: global arrays, static local arrays, float constant pool, in one
	// allocation sized for the symbols plus worst-case alignment padding.
	size := 15 * len(ctx.floatOrder)
	for _, g := range file.Globals {
		size += int(chk.symOf[g].length)*8 + 7
	}
	for _, la := range ctx.localArrays {
		size += int(la.length)*8 + 7
	}
	b.Reserve(size)
	for _, g := range file.Globals {
		sym := chk.symOf[g]
		name := sym.dataSym
		if name == "" {
			name = "g." + sym.name
		}
		b.Align(8)
		b.Sym(name).Zero(int(sym.length) * 8)
	}
	for _, la := range ctx.localArrays {
		b.Align(8)
		b.Sym(la.name).Zero(int(la.length) * 8)
	}
	for _, bits := range ctx.floatOrder {
		b.Align(8)
		b.Sym(ctx.floatConsts[bits]).Quad(bits)
	}

	prog, err := b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	return prog, diags, ctx.sites, nil
}

// MustCompile is Compile that panics on error; for tests and statically
// known-good workload sources.
func MustCompile(name, src string) *asm.Program {
	p, _, err := Compile(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

// DumpIR returns the IR of every function, for debugging and tests.
func DumpIR(src string) (string, error) {
	file, err := Parse(src)
	if err != nil {
		return "", err
	}
	chk, err := check(file)
	if err != nil {
		return "", err
	}
	ctx := &compilation{floatConsts: make(map[uint64]string)}
	out := ""
	for _, fn := range file.Funcs {
		f, err := lowerFunc(chk, ctx, Options{}, fn)
		if err != nil {
			return "", err
		}
		out += f.dump()
	}
	return out, nil
}
