package dynarisc

import (
	"errors"
	"testing"
	"testing/quick"
)

// stateEqual compares every piece of architecturally visible state.
func stateEqual(a, b *CPU) bool {
	if a.R != b.R || a.D != b.D || a.PC != b.PC {
		return false
	}
	if a.Z != b.Z || a.N != b.N || a.C != b.C {
		return false
	}
	if a.Halted != b.Halted || a.Steps != b.Steps || a.InPos != b.InPos {
		return false
	}
	if len(a.Out) != len(b.Out) {
		return false
	}
	for i := range a.Out {
		if a.Out[i] != b.Out[i] {
			return false
		}
	}
	if len(a.Mem) != len(b.Mem) {
		return false
	}
	for i := range a.Mem {
		if a.Mem[i] != b.Mem[i] {
			return false
		}
	}
	return true
}

// stepLoop drives a CPU with Step until halt or error, like Run's
// documented reference semantics.
func stepLoop(c *CPU) error {
	for !c.Halted {
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// TestRunMatchesStepProgram pins Run ≡ Step-loop on a program exercising
// every instruction class, including I/O and shifts by register counts
// larger than the operand width.
func TestRunMatchesStepProgram(t *testing.T) {
	src := `
	        LDI  R0, 0xFFF0
	        MOVE D0, R0
	        LDI  R0, 0xFF
	        MOVH D0, R0      ; D0 = IOIn
	        LDI  R0, 0xFFF2
	        MOVE D2, R0
	        LDI  R0, 0xFF
	        MOVH D2, R0      ; D2 = IOOut
	        LDI  R0, 0xFFF1
	        MOVE D1, R0
	        LDI  R0, 0xFF
	        MOVH D1, R0      ; D1 = IOAvail
	        LDI  R1, 3
	loop:   LDM  R0, [D1]    ; input left?
	        LDI  R3, 0
	        CMP  R0, R3
	        JZ   done
	        LDM  R0, [D0]    ; pop input
	        LDI  R2, 0x1234
	        MUL  R2, R0
	        ADC  R2, R7
	        LSL  R2, R1
	        ROR  R2, R1
	        LDI  R3, 29
	        LSR  R2, R3      ; count > width
	        ASR  R0, R1
	        XOR  R2, R0
	        STM  R2, [D2]    ; emit
	        LDI  R3, 100
	        MOVE D3, R3
	        STM  R2, [D3]    ; plain memory store
	        JUMP loop
	done:   HALT
	`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *CPU {
		c := NewCPU(1 << 12)
		if err := c.LoadProgram(p.Org, p.Words); err != nil {
			t.Fatal(err)
		}
		c.In = []uint16{3, 1, 4, 1, 5, 9, 2, 6, 8}
		c.MaxSteps = 100_000
		return c
	}

	fast := mk()
	if err := fast.Run(); err != nil {
		t.Fatal(err)
	}
	slow := mk()
	if err := stepLoop(slow); err != nil {
		t.Fatal(err)
	}
	if !stateEqual(fast, slow) {
		t.Fatalf("state divergence:\nrun:  %+v\nstep: %+v", fast, slow)
	}
	if len(fast.Out) == 0 {
		t.Fatal("program produced no output; test is vacuous")
	}
}

// TestRunStepEquivalenceProperty drives random instruction soups through
// both execution paths; whatever happens (halt, error, step limit) must
// happen identically — registers, flags, memory, I/O and step counts.
// Memory spans the full 16-bit PC range so the soup can never walk off
// the end of the code image.
func TestRunStepEquivalenceProperty(t *testing.T) {
	f := func(words []uint16, in []uint16) bool {
		// Clamp register fields to architecturally valid ids (0..11):
		// id 12..15 panics identically on both paths, which would abort
		// the comparison rather than exercise it.
		for i, w := range words {
			op, rd, rs, mode := Decode(w)
			words[i] = Encode(op, rd%NumRegs, rs%NumRegs, mode)
		}
		mk := func() *CPU {
			c := NewCPU(1 << 16)
			copy(c.Mem, words)
			c.In = append([]uint16(nil), in...)
			c.MaxSteps = 3000
			return c
		}
		run := mk()
		runErr := run.Run()
		step := mk()
		stepErr := stepLoop(step)

		if (runErr == nil) != (stepErr == nil) {
			return false
		}
		if runErr != nil && runErr.Error() != stepErr.Error() {
			return false
		}
		return stateEqual(run, step)
	}
	cfg := &quick.Config{MaxCount: 80}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunStepLimit checks the hoisted budget check still aborts exactly
// at the limit on both paths.
func TestRunStepLimit(t *testing.T) {
	mk := func() *CPU {
		c := NewCPU(64)
		// JUMP 0 forever.
		c.Mem[0] = Encode(JUMP, 0, 0, 0)
		c.Mem[1] = 0
		c.MaxSteps = 500
		return c
	}
	run := mk()
	if err := run.Run(); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("run: got %v, want step limit", err)
	}
	step := mk()
	if err := stepLoop(step); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("step: got %v, want step limit", err)
	}
	if run.Steps != 500 || step.Steps != 500 {
		t.Fatalf("steps at abort: run %d step %d, want 500", run.Steps, step.Steps)
	}
}

// TestShiftResultMatchesBitLoop exhaustively cross-checks the O(1) shift
// against the per-bit reference for every opcode, width and count.
func TestShiftResultMatchesBitLoop(t *testing.T) {
	ref := func(op Op, v uint32, count int, w uint) (uint32, bool, bool) {
		mask := uint32(1)<<w - 1
		v &= mask
		carry, set := false, false
		for i := 0; i < count; i++ {
			set = true
			switch op {
			case LSL:
				carry = v>>(w-1)&1 == 1
				v = v << 1 & mask
			case LSR:
				carry = v&1 == 1
				v >>= 1
			case ASR:
				carry = v&1 == 1
				sign := v >> (w - 1) & 1
				v = v>>1 | sign<<(w-1)
			case ROR:
				bit := v & 1
				carry = bit == 1
				v = v>>1 | bit<<(w-1)
			}
		}
		return v, carry, set
	}
	values := []uint32{0, 1, 2, 0x5555, 0x8000, 0xFFFF, 0x800000, 0xABCDEF, 0xFFFFFF}
	for _, op := range []Op{LSL, LSR, ASR, ROR} {
		for _, w := range []uint{16, 24} {
			for _, v := range values {
				for count := 0; count <= 31; count++ {
					gotV, gotC, gotSet := shiftResult(op, v, count, w)
					wantV, wantC, wantSet := ref(op, v, count, w)
					if gotV != wantV || gotC != wantC || gotSet != wantSet {
						t.Fatalf("%v v=%#x count=%d w=%d: got (%#x,%v,%v) want (%#x,%v,%v)",
							op, v, count, w, gotV, gotC, gotSet, wantV, wantC, wantSet)
					}
				}
			}
		}
	}
}
