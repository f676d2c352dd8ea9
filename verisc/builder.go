package verisc

import (
	"fmt"
	"sort"
)

// Program is a built VeRisc image.
type Program struct {
	Org    uint32
	Cells  []uint32
	Labels map[string]uint32
}

// Ref is an address reference: absolute, or a label resolved at Build
// time.
type Ref struct {
	abs   uint32
	label string
	isAbs bool
}

// Abs returns an absolute address reference.
func Abs(addr uint32) Ref { return Ref{abs: addr, isAbs: true} }

// Lbl returns a label reference.
func Lbl(name string) Ref { return Ref{label: name} }

// Builder assembles VeRisc programs. Code is emitted sequentially from
// the origin; constants, variables and address tables are appended after
// the code at Build time and referenced through labels. On top of the
// four raw instructions the Builder provides the standard VeRisc idioms
// as macros: immediate loads, addition (via double subtraction),
// conditional jumps (via a borrow-indexed address table stored to PC) and
// indirect access (by patching the operand cell of an upcoming
// instruction). The macros keep VeRisc honest: every emitted cell is one
// of the four instructions or data.
type Builder struct {
	org    uint32
	cells  []uint32
	fixups map[int]Ref // code-relative cell index -> ref
	labels map[string]uint32

	consts map[uint64]string // interned const/addr cells (key has kind bit)
	data   []dataCell
	uniq   int
	err    error
}

type dataCell struct {
	label string
	init  []Ref // each cell either Abs(value) or a label ref
}

// NewBuilder returns a builder placing code at org (min ReservedCells).
func NewBuilder(org uint32) *Builder {
	if org < ReservedCells {
		org = ReservedCells
	}
	b := &Builder{
		org:    org,
		fixups: map[int]Ref{},
		labels: map[string]uint32{},
		consts: map[uint64]string{},
	}
	return b
}

// Here returns the absolute address of the next emitted cell.
func (b *Builder) Here() uint32 { return b.org + uint32(len(b.cells)) }

// Label defines name at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = b.Here()
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("verisc builder: "+format, args...)
	}
}

func (b *Builder) emit(op uint32, a Ref) uint32 {
	b.cells = append(b.cells, op, 0)
	idx := len(b.cells) - 1
	b.fixups[idx] = a
	return b.org + uint32(idx)
}

// LD emits a load; it returns the absolute address of the operand cell so
// macros can patch it (indirect addressing).
func (b *Builder) LD(a Ref) uint32 { return b.emit(LD, a) }

// ST emits a store.
func (b *Builder) ST(a Ref) uint32 { return b.emit(ST, a) }

// SBBi emits a subtract-with-borrow.
func (b *Builder) SBBi(a Ref) uint32 { return b.emit(SBB, a) }

// ANDi emits a bitwise and.
func (b *Builder) ANDi(a Ref) uint32 { return b.emit(AND, a) }

// Const returns a reference to an interned data cell holding v.
func (b *Builder) Const(v uint32) Ref {
	key := uint64(v)
	if name, ok := b.consts[key]; ok {
		return Lbl(name)
	}
	name := fmt.Sprintf("$c%d", v)
	b.consts[key] = name
	b.data = append(b.data, dataCell{label: name, init: []Ref{Abs(v)}})
	return Lbl(name)
}

// AddrConst returns a reference to a data cell holding the address of a
// label (a "pointer literal", used for jumps and subroutine returns).
func (b *Builder) AddrConst(target string) Ref {
	key := uint64(1)<<63 | uint64(len(target))<<32 | uint64(hashString(target))
	if name, ok := b.consts[key]; ok {
		return Lbl(name)
	}
	name := "$a_" + target
	b.consts[key] = name
	b.data = append(b.data, dataCell{label: name, init: []Ref{Lbl(target)}})
	return Lbl(name)
}

func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Var allocates a named data cell with an initial value.
func (b *Builder) Var(name string, init uint32) Ref {
	b.data = append(b.data, dataCell{label: name, init: []Ref{Abs(init)}})
	return Lbl(name)
}

// Array allocates size zeroed data cells under one label.
func (b *Builder) Array(name string, size int) Ref {
	init := make([]Ref, size)
	for i := range init {
		init[i] = Abs(0)
	}
	b.data = append(b.data, dataCell{label: name, init: init})
	return Lbl(name)
}

// Table allocates a data cell per entry, each holding a label address.
func (b *Builder) Table(name string, targets ...string) Ref {
	init := make([]Ref, len(targets))
	for i, t := range targets {
		init[i] = Lbl(t)
	}
	b.data = append(b.data, dataCell{label: name, init: init})
	return Lbl(name)
}

func (b *Builder) unique(prefix string) string {
	b.uniq++
	return fmt.Sprintf("$%s%d", prefix, b.uniq)
}

// scratch returns the shared scratch variable refs, creating them once.
func (b *Builder) scratch(name string) Ref {
	key := uint64(2)<<62 | uint64(hashString(name))
	if n, ok := b.consts[key]; ok {
		return Lbl(n)
	}
	b.consts[key] = name
	b.data = append(b.data, dataCell{label: name, init: []Ref{Abs(0)}})
	return Lbl(name)
}

// --- Macro layer -----------------------------------------------------

// LoadImm sets R = v.
func (b *Builder) LoadImm(v uint32) { b.LD(b.Const(v)) }

// ZeroB clears the borrow flag, preserving R.
func (b *Builder) ZeroB() {
	t := b.scratch("$zb")
	b.ST(t)
	b.LD(b.Const(0))
	b.ST(Abs(CellB))
	b.LD(t)
}

// Sub computes R -= M[a] with a clean borrow in (B ends as the borrow out).
func (b *Builder) Sub(a Ref) {
	b.ZeroB()
	b.SBBi(a)
}

// Add computes R += M[a] (32-bit wrap; B is clobbered).
func (b *Builder) Add(a Ref) {
	t1 := b.scratch("$add1")
	t2 := b.scratch("$add2")
	b.ST(t1)
	b.LoadImm(0)
	b.ZeroB()
	b.SBBi(a) // R = -M[a]
	b.ST(t2)
	b.LD(t1)
	b.ZeroB()
	b.SBBi(t2) // R = t1 - (-M[a]) = t1 + M[a]
}

// Goto jumps unconditionally (clobbers R).
func (b *Builder) Goto(target string) {
	b.LD(b.AddrConst(target))
	b.ST(Abs(CellPC))
}

// Halt stops the machine.
func (b *Builder) Halt() { b.ST(Abs(CellHalt)) }

// OutR writes R to the output port.
func (b *Builder) OutR() { b.ST(Abs(CellOut)) }

// InR reads the next input word into R.
func (b *Builder) InR() { b.LD(Abs(CellIn)) }

// jumpOnBVal jumps to target when B==want (0 or 1), else falls through.
// Clobbers R and B.
func (b *Builder) jumpOnBVal(target string, want int) {
	fall := b.unique("fall")
	table := b.unique("jt")
	t := b.scratch("$jb")
	b.LD(Abs(CellB))
	b.ST(t)
	b.LD(b.AddrConst(table))
	b.Add(t) // R = table + B
	// Patch the operand of the next LD with the table slot address.
	pos := b.Here()
	b.ST(Abs(pos + 3))
	b.LD(Abs(0)) // patched: loads the jump target
	b.ST(Abs(CellPC))
	if want == 1 {
		b.Table(table, fall, target)
	} else {
		b.Table(table, target, fall)
	}
	b.Label(fall)
}

// JumpIfBorrow jumps when B==1.
func (b *Builder) JumpIfBorrow(target string) { b.jumpOnBVal(target, 1) }

// JumpIfNoBorrow jumps when B==0.
func (b *Builder) JumpIfNoBorrow(target string) { b.jumpOnBVal(target, 0) }

// JumpIfZero jumps when R==0 (clobbers R and B).
func (b *Builder) JumpIfZero(target string) {
	b.ZeroB()
	b.SBBi(b.Const(1)) // borrows only if R was 0
	b.JumpIfBorrow(target)
}

// JumpIfNonZero jumps when R != 0 (clobbers R and B).
func (b *Builder) JumpIfNonZero(target string) {
	b.ZeroB()
	b.SBBi(b.Const(1))
	b.JumpIfNoBorrow(target)
}

// JumpIfULT jumps to target when R < M[a] (unsigned). Clobbers R, B.
func (b *Builder) JumpIfULT(a Ref, target string) {
	b.Sub(a)
	b.JumpIfBorrow(target)
}

// JumpIfUGE jumps to target when R >= M[a] (unsigned). Clobbers R, B.
func (b *Builder) JumpIfUGE(a Ref, target string) {
	b.Sub(a)
	b.JumpIfNoBorrow(target)
}

// LoadIndirect loads R = M[R] by patching the next instruction.
func (b *Builder) LoadIndirect() {
	pos := b.Here()
	b.ST(Abs(pos + 3)) // operand cell of the LD below
	b.LD(Abs(0))       // patched at runtime
}

// StoreIndirect stores M[R] = M[valVar] by patching.
func (b *Builder) StoreIndirect(valVar Ref) {
	pos := b.Here()
	b.ST(Abs(pos + 5)) // operand cell of the ST below
	b.LD(valVar)
	b.ST(Abs(0)) // patched at runtime
}

// CallSub calls a subroutine built with BeginSub/RetSub (no recursion:
// one return slot per subroutine).
func (b *Builder) CallSub(name string) {
	after := b.unique("ret")
	b.LD(b.AddrConst(after))
	b.ST(b.scratch("$ret_" + name))
	b.Goto(name)
	b.Label(after)
}

// BeginSub starts a subroutine body.
func (b *Builder) BeginSub(name string) {
	b.Label(name)
	b.scratch("$ret_" + name)
}

// RetSub returns from the subroutine.
func (b *Builder) RetSub(name string) {
	b.LD(b.scratch("$ret_" + name))
	b.ST(Abs(CellPC))
}

// Build resolves labels and returns the final image.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Append data cells (stable order).
	dataFixups := map[int]Ref{}
	for _, d := range b.data {
		if _, dup := b.labels[d.label]; dup {
			return nil, fmt.Errorf("verisc builder: data label %q collides", d.label)
		}
		b.labels[d.label] = b.Here()
		for _, init := range d.init {
			b.cells = append(b.cells, 0)
			dataFixups[len(b.cells)-1] = init
		}
	}
	resolve := func(r Ref) (uint32, error) {
		if r.isAbs {
			return r.abs, nil
		}
		v, ok := b.labels[r.label]
		if !ok {
			return 0, fmt.Errorf("verisc builder: undefined label %q", r.label)
		}
		return v, nil
	}
	apply := func(fixups map[int]Ref) error {
		idxs := make([]int, 0, len(fixups))
		for i := range fixups {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			v, err := resolve(fixups[i])
			if err != nil {
				return err
			}
			b.cells[i] = v
		}
		return nil
	}
	if err := apply(b.fixups); err != nil {
		return nil, err
	}
	if err := apply(dataFixups); err != nil {
		return nil, err
	}
	labels := make(map[string]uint32, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	return &Program{Org: b.org, Cells: append([]uint32(nil), b.cells...), Labels: labels}, nil
}
