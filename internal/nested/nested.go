// Package nested implements the heart of Olonys: the DynaRisc emulator
// expressed as a VeRisc program (§3.2 of the paper).
//
// The paper's nested emulation strategy minimises future effort: a user
// restoring the archive implements only the four-instruction VeRisc
// machine; the archived instruction stream built here then instantiates a
// full DynaRisc emulator *inside* that machine, which in turn executes the
// archived MOCoder/DBCoder layout decoders. This package generates that
// instruction stream with the verisc.Builder macro layer — every cell of
// the result is one of the four VeRisc instructions or data.
//
// # Guest conventions
//
// The guest (DynaRisc) machine lives inside VeRisc memory at GuestBase,
// one 16-bit guest word per 32-bit cell. The VeRisc input stream carries,
// in order:
//
//	[ guest origin, guest code length, code words..., guest input... ]
//
// After loading the image the emulator enters its fetch/decode/dispatch
// loop. Guest LDM/STM to the DynaRisc I/O addresses are forwarded to the
// host VeRisc ports, so the guest's remaining input is simply the rest of
// the VeRisc input stream and guest output words appear on the VeRisc
// output port.
package nested

import (
	"fmt"
	"sync"

	"microlonys/dynarisc"
	"microlonys/verisc"
)

// GuestBase is the first VeRisc cell of guest memory. The emulator
// program itself comfortably fits below it.
const GuestBase = 1 << 16

// DefaultGuestWords is the default guest memory size in words.
const DefaultGuestWords = 1 << 20

// gen carries the variable references while emitting the emulator.
type gen struct {
	b   *verisc.Builder
	seq int

	gpc, gz, gn, gc      verisc.Ref
	instr, opv, rdv, rsv verisc.Ref
	modev, fw            verisc.Ref
	vrd, vrs             verisc.Ref
	wmask, wsign, wover  verisc.Ref
	res, res32, val      verisc.Ref
	av, bv, acc          verisc.Ref
	cnt, dv, dbit        verisc.Ref
	t1, t2, t3           verisc.Ref
	iv, gorg, glen       verisc.Ref
	hiv, lov             verisc.Ref
	regs                 verisc.Ref
}

func (n *gen) lbl(prefix string) string {
	n.seq++
	return fmt.Sprintf("n_%s_%d", prefix, n.seq)
}

// Build generates the emulator program.
func Build() (*verisc.Program, error) {
	b := verisc.NewBuilder(verisc.ReservedCells)
	n := &gen{b: b}

	n.gpc = b.Var("gpc", 0)
	n.gz = b.Var("gz", 0)
	n.gn = b.Var("gn", 0)
	n.gc = b.Var("gc", 0)
	n.instr = b.Var("instr", 0)
	n.opv = b.Var("opv", 0)
	n.rdv = b.Var("rdv", 0)
	n.rsv = b.Var("rsv", 0)
	n.modev = b.Var("modev", 0)
	n.fw = b.Var("fw", 0)
	n.vrd = b.Var("vrd", 0)
	n.vrs = b.Var("vrs", 0)
	n.wmask = b.Var("wmask", 0)
	n.wsign = b.Var("wsign", 0)
	n.wover = b.Var("wover", 0)
	n.res = b.Var("res", 0)
	n.res32 = b.Var("res32", 0)
	n.val = b.Var("val", 0)
	n.av = b.Var("av", 0)
	n.bv = b.Var("bv", 0)
	n.acc = b.Var("acc", 0)
	n.cnt = b.Var("cnt", 0)
	n.dv = b.Var("dv", 0)
	n.dbit = b.Var("dbit", 0)
	n.t1 = b.Var("t1", 0)
	n.t2 = b.Var("t2", 0)
	n.t3 = b.Var("t3", 0)
	n.iv = b.Var("iv", 0)
	n.gorg = b.Var("gorg", 0)
	n.glen = b.Var("glen", 0)
	n.hiv = b.Var("hiv", 0)
	n.lov = b.Var("lov", 0)
	n.regs = b.Array("regs", 12)

	n.loader()
	n.mainLoop()
	n.handlers()
	n.subs()

	return b.Build()
}

// loader reads [org, len, code...] from input into guest memory.
func (n *gen) loader() {
	b := n.b
	b.InR()
	b.ST(n.gorg)
	b.InR()
	b.ST(n.glen)
	b.LoadImm(0)
	b.ST(n.iv)
	b.Label("loadloop")
	b.LD(n.iv)
	b.JumpIfULT(n.glen, "loadcont")
	b.Goto("loaded")
	b.Label("loadcont")
	b.InR()
	b.ST(n.val)
	b.LD(b.Const(GuestBase))
	b.Add(n.gorg)
	b.Add(n.iv)
	b.StoreIndirect(n.val)
	b.LD(n.iv)
	b.Add(b.Const(1))
	b.ST(n.iv)
	b.Goto("loadloop")
	b.Label("loaded")
	b.LD(n.gorg)
	b.ST(n.gpc)
	// fall through into main
}

// mainLoop fetches, decodes and dispatches one guest instruction.
func (n *gen) mainLoop() {
	b := n.b
	b.Label("main")
	b.CallSub("fetch")
	b.LD(n.fw)
	b.ST(n.instr)

	// Decode: op = instr[15:11], rd = [10:7], rs = [6:3], mode = [2:0].
	n.extract(n.instr, n.opv, n.t3, 5, 2048)
	n.extract(n.t3, n.rdv, n.t2, 4, 128)
	n.extract(n.t2, n.rsv, n.modev, 4, 8)

	// Dispatch through the opcode table.
	b.LD(b.AddrConst("optable"))
	b.Add(n.opv)
	b.LoadIndirect()
	b.ST(verisc.Abs(verisc.CellPC))
}

// extract emits unrolled restoring division: quo = src / weight (bits
// quotient bits), rem = src % weight. Clobbers R and B.
func (n *gen) extract(src, quo, rem verisc.Ref, bits int, weight uint32) {
	b := n.b
	b.LD(src)
	b.ST(rem)
	b.LoadImm(0)
	b.ST(quo)
	for k := bits - 1; k >= 0; k-- {
		skip := n.lbl("xs")
		th := weight << uint(k)
		b.LD(rem)
		b.Sub(b.Const(th))
		b.ST(n.t1) // save rem-th; ST preserves B
		b.JumpIfBorrow(skip)
		b.LD(n.t1)
		b.ST(rem)
		b.LD(quo)
		b.Add(b.Const(1 << uint(k)))
		b.ST(quo)
		b.Label(skip)
	}
}

// setFlag emits: flag = (R != 0) ? 1 : 0. Clobbers R, B.
func (n *gen) setFlag(flag verisc.Ref) {
	b := n.b
	z := n.lbl("fz")
	done := n.lbl("fd")
	b.JumpIfZero(z)
	b.LoadImm(1)
	b.ST(flag)
	b.Goto(done)
	b.Label(z)
	b.LoadImm(0)
	b.ST(flag)
	b.Label(done)
}

// aluPrep loads both operands masked to the destination width:
// av = regs[rd] & wmask, bv = regs[rs] & wmask.
func (n *gen) aluPrep() {
	b := n.b
	b.CallSub("readrd")
	b.CallSub("readrs")
	b.CallSub("setwidth")
	b.LD(n.vrd)
	b.ANDi(n.wmask)
	b.ST(n.av)
	b.LD(n.vrs)
	b.ANDi(n.wmask)
	b.ST(n.bv)
}

// finishALU sets Z/N from res, writes regs[rd] and returns to main.
func (n *gen) finishALU() {
	b := n.b
	b.CallSub("setzn")
	b.CallSub("writerd")
	b.Goto("main")
}

func (n *gen) handlers() {
	n.hHalt()
	n.hMove()
	n.hLdi()
	n.hLdm()
	n.hStm()
	n.hAddSub()
	n.hMul()
	n.hLogic()
	n.hShifts()
	n.hJumps()

	// The dispatch table, in opcode order (must mirror dynarisc's ISA).
	n.b.Table("optable",
		"h_halt", "h_move", "h_ldi", "h_ldm", "h_stm",
		"h_add", "h_adc", "h_sub", "h_sbb", "h_cmp", "h_mul",
		"h_and", "h_or", "h_xor",
		"h_lsl", "h_lsr", "h_asr", "h_ror",
		"h_jump", "h_jz", "h_jnz", "h_jc", "h_jnc",
	)
}

func (n *gen) hHalt() {
	b := n.b
	b.Label("h_halt")
	b.Halt()
}

func (n *gen) hMove() {
	b := n.b
	b.Label("h_move")
	b.LD(n.modev)
	b.ANDi(b.Const(1))
	b.JumpIfZero("move_plain")

	// MOVH Dd, Rs: regs[rd] = regs[rd]&0xFFFF | (regs[rs]&0xFF)<<16.
	b.CallSub("readrd")
	b.CallSub("readrs")
	b.LD(n.vrs)
	b.ANDi(b.Const(0xFF))
	for i := 0; i < 16; i++ { // << 16 by doubling
		b.ST(n.t1)
		b.Add(n.t1)
	}
	b.ST(n.t1)
	b.LD(n.vrd)
	b.ANDi(b.Const(0xFFFF))
	b.Add(n.t1)
	b.ST(n.res)
	b.CallSub("writerd")
	b.Goto("main")

	b.Label("move_plain")
	b.CallSub("readrs")
	b.CallSub("setwidth")
	b.LD(n.vrs)
	b.ANDi(n.wmask)
	b.ST(n.res)
	b.CallSub("writerd")
	b.Goto("main")
}

func (n *gen) hLdi() {
	b := n.b
	b.Label("h_ldi")
	b.CallSub("fetch")
	b.CallSub("setwidth")
	b.LD(n.fw)
	b.ANDi(n.wmask)
	b.ST(n.res)
	b.CallSub("writerd")
	b.Goto("main")
}

func (n *gen) hLdm() {
	b := n.b
	b.Label("h_ldm")
	b.CallSub("readrs") // pointer value
	b.LD(n.vrs)
	b.Sub(b.Const(dynarisc.IOIn))
	b.JumpIfZero("ldm_in")
	b.LD(n.vrs)
	b.Sub(b.Const(dynarisc.IOAvail))
	b.JumpIfZero("ldm_avail")
	b.LD(b.Const(GuestBase))
	b.Add(n.vrs)
	b.LoadIndirect()
	b.ST(n.val)
	b.Goto("ldm_store")
	b.Label("ldm_in")
	b.LD(verisc.Abs(verisc.CellIn))
	b.ST(n.val)
	b.Goto("ldm_store")
	b.Label("ldm_avail")
	b.LD(verisc.Abs(verisc.CellAvail))
	b.ST(n.val)
	b.Label("ldm_store")
	b.CallSub("setwidth")
	b.LD(n.val)
	b.ANDi(b.Const(0xFFFF))
	b.ST(n.res)
	b.CallSub("writerd")
	b.Goto("main")
}

func (n *gen) hStm() {
	b := n.b
	b.Label("h_stm")
	b.CallSub("readrd") // value register
	b.CallSub("readrs") // pointer register
	b.LD(n.vrd)
	b.ANDi(b.Const(0xFFFF))
	b.ST(n.val)
	b.LD(n.vrs)
	b.Sub(b.Const(dynarisc.IOOut))
	b.JumpIfZero("stm_io")
	b.LD(b.Const(GuestBase))
	b.Add(n.vrs)
	b.StoreIndirect(n.val)
	b.Goto("main")
	b.Label("stm_io")
	b.LD(n.val)
	b.OutR()
	b.Goto("main")
}

// hAddSub covers ADD, ADC, SUB, SBB and CMP.
func (n *gen) hAddSub() {
	b := n.b

	// Additions: carry-in prepared in t2.
	b.Label("h_add")
	b.LoadImm(0)
	b.ST(n.t2)
	b.Goto("addcommon")
	b.Label("h_adc")
	b.LD(n.gc)
	b.ST(n.t2)
	b.Label("addcommon")
	n.aluPrep()
	b.LD(n.av)
	b.Add(n.bv)
	b.Add(n.t2)
	b.ST(n.res32)
	b.LD(n.res32)
	b.ANDi(n.wover)
	n.setFlag(n.gc)
	b.LD(n.res32)
	b.ANDi(n.wmask)
	b.ST(n.res)
	n.finishALU()

	// Subtractions: borrow-in prepared in t2; CMP skips the writeback.
	b.Label("h_sub")
	b.LoadImm(0)
	b.ST(n.t2)
	b.Goto("subcommon")
	b.Label("h_sbb")
	b.LD(n.gc)
	b.ST(n.t2)
	b.Goto("subcommon")
	b.Label("h_cmp")
	b.LoadImm(0)
	b.ST(n.t2)
	n.aluPrep()
	n.subCore()
	b.CallSub("setzn")
	b.Goto("main") // CMP: no writeback

	b.Label("subcommon")
	n.aluPrep()
	n.subCore()
	n.finishALU()
}

// subCore computes res = (av - bv - t2) & wmask and gc = borrow.
// R must be disposable; av/bv/t2 prepared.
func (n *gen) subCore() {
	b := n.b
	b.LD(n.t2)
	b.ST(verisc.Abs(verisc.CellB)) // B = borrow-in
	b.LD(n.av)
	b.SBBi(n.bv) // R = av - bv - B (32-bit wrap), B = borrow-out
	b.ST(n.res32)
	b.LD(verisc.Abs(verisc.CellB))
	b.ST(n.gc)
	b.LD(n.res32)
	b.ANDi(n.wmask)
	b.ST(n.res)
}

func (n *gen) hMul() {
	b := n.b
	b.Label("h_mul")
	b.CallSub("readrd")
	b.CallSub("readrs")
	b.LD(n.vrd)
	b.ANDi(b.Const(0xFFFF))
	b.ST(n.av)
	b.LD(n.vrs)
	b.ANDi(b.Const(0xFFFF))
	b.ST(n.bv)
	b.LoadImm(0)
	b.ST(n.acc)
	// Shift-and-add over the 16 multiplier bits; av doubles each round.
	for k := 0; k < 16; k++ {
		skip := n.lbl("mulk")
		b.LD(n.bv)
		b.ANDi(b.Const(1 << uint(k)))
		b.JumpIfZero(skip)
		b.LD(n.acc)
		b.Add(n.av)
		b.ST(n.acc)
		b.Label(skip)
		if k < 15 {
			b.LD(n.av)
			b.ST(n.t1)
			b.Add(n.t1)
			b.ST(n.av)
		}
	}
	// Split the 32-bit product.
	n.extract(n.acc, n.hiv, n.lov, 16, 1<<16)
	// regs[rd] = lo (at destination width), regs[R7] = hi.
	b.CallSub("setwidth")
	b.LD(n.lov)
	b.ANDi(n.wmask)
	b.ST(n.res)
	b.CallSub("writerd")
	b.LD(b.AddrConst("regs"))
	b.Add(b.Const(7))
	b.StoreIndirect(n.hiv)
	// C = hi != 0; Z/N from lo at 16-bit width.
	b.LD(n.hiv)
	n.setFlag(n.gc)
	b.LD(b.Const(0x8000))
	b.ST(n.wsign)
	b.LD(n.lov)
	b.ST(n.res)
	b.CallSub("setzn")
	b.Goto("main")
}

func (n *gen) hLogic() {
	b := n.b

	b.Label("h_and")
	n.aluPrep()
	b.LD(n.av)
	b.ANDi(n.bv)
	b.ST(n.res)
	n.finishALU()

	// OR: a + b - (a & b).
	b.Label("h_or")
	n.aluPrep()
	b.LD(n.av)
	b.ANDi(n.bv)
	b.ST(n.t1)
	b.LD(n.av)
	b.Add(n.bv)
	b.Sub(n.t1)
	b.ST(n.res)
	n.finishALU()

	// XOR: a + b - 2·(a & b).
	b.Label("h_xor")
	n.aluPrep()
	b.LD(n.av)
	b.ANDi(n.bv)
	b.ST(n.t1)
	b.LD(n.av)
	b.Add(n.bv)
	b.Sub(n.t1)
	b.Sub(n.t1)
	b.ST(n.res)
	n.finishALU()
}

func (n *gen) hShifts() {
	b := n.b
	type shift struct {
		label string
		step  func()
	}
	// One runtime loop per opcode; each step mirrors the Go CPU exactly.
	shifts := []shift{
		{"h_lsl", func() {
			// C = msb; res = (res << 1) & mask.
			b.LD(n.res)
			b.ANDi(n.wsign)
			n.setFlag(n.gc)
			b.LD(n.res)
			b.ST(n.t1)
			b.Add(n.t1)
			b.ANDi(n.wmask)
			b.ST(n.res)
		}},
		{"h_lsr", func() {
			n.halveRes()
			b.LD(n.dbit)
			b.ST(n.gc)
		}},
		{"h_asr", func() {
			b.LD(n.res)
			b.ANDi(n.wsign)
			b.ST(n.t3) // sign bit before the shift
			n.halveRes()
			b.LD(n.dbit)
			b.ST(n.gc)
			skip := n.lbl("asr")
			b.LD(n.t3)
			b.JumpIfZero(skip)
			b.LD(n.res)
			b.Add(n.wsign)
			b.ST(n.res)
			b.Label(skip)
		}},
		{"h_ror", func() {
			n.halveRes()
			b.LD(n.dbit)
			b.ST(n.gc)
			skip := n.lbl("ror")
			b.LD(n.dbit)
			b.JumpIfZero(skip)
			b.LD(n.res)
			b.Add(n.wsign)
			b.ST(n.res)
			b.Label(skip)
		}},
	}
	for _, s := range shifts {
		loop := n.lbl("shl")
		done := n.lbl("shd")
		b.Label(s.label)
		n.aluPrep() // av = value, bv = count source
		b.LD(n.av)
		b.ST(n.res)
		b.LD(n.vrs)
		b.ANDi(b.Const(31))
		b.ST(n.cnt)
		b.Label(loop)
		b.LD(n.cnt)
		b.JumpIfZero(done)
		b.LD(n.cnt)
		b.Sub(b.Const(1))
		b.ST(n.cnt)
		s.step()
		b.Goto(loop)
		b.Label(done)
		n.finishALU()
	}
}

// halveRes emits: dbit = res & 1; res >>= 1 (via the div2 subroutine).
func (n *gen) halveRes() {
	b := n.b
	b.LD(n.res)
	b.ST(n.dv)
	b.CallSub("div2")
	b.LD(n.dv)
	b.ST(n.res)
}

func (n *gen) hJumps() {
	b := n.b
	conds := []struct {
		label string
		flag  verisc.Ref
		want  int // jump when flag == want; -1 = always
	}{
		{"h_jump", verisc.Ref{}, -1},
		{"h_jz", n.gz, 1},
		{"h_jnz", n.gz, 0},
		{"h_jc", n.gc, 1},
		{"h_jnc", n.gc, 0},
	}
	for _, c := range conds {
		imm := n.lbl("jimm")
		cond := n.lbl("jcond")
		b.Label(c.label)
		b.LD(n.modev)
		b.ANDi(b.Const(1))
		b.JumpIfZero(imm)
		b.CallSub("readrd")
		b.LD(n.vrd)
		b.ANDi(b.Const(0xFFFF))
		b.ST(n.t1)
		b.Goto(cond)
		b.Label(imm)
		b.CallSub("fetch")
		b.LD(n.fw)
		b.ST(n.t1)
		b.Label(cond)
		switch c.want {
		case -1:
			b.Goto("jtake")
		case 1:
			b.LD(c.flag)
			b.JumpIfNonZero("jtake")
			b.Goto("main")
		case 0:
			b.LD(c.flag)
			b.JumpIfZero("jtake")
			b.Goto("main")
		}
	}
	b.Label("jtake")
	b.LD(n.t1)
	b.ST(n.gpc)
	b.Goto("main")
}

func (n *gen) subs() {
	b := n.b

	// fetch: fw = guest[gpc]; gpc = (gpc + 1) & 0xFFFF.
	b.BeginSub("fetch")
	b.LD(b.Const(GuestBase))
	b.Add(n.gpc)
	b.LoadIndirect()
	b.ST(n.fw)
	b.LD(n.gpc)
	b.Add(b.Const(1))
	b.ANDi(b.Const(0xFFFF))
	b.ST(n.gpc)
	b.RetSub("fetch")

	// readrd: vrd = regs[rdv]; readrs: vrs = regs[rsv].
	b.BeginSub("readrd")
	b.LD(b.AddrConst("regs"))
	b.Add(n.rdv)
	b.LoadIndirect()
	b.ST(n.vrd)
	b.RetSub("readrd")

	b.BeginSub("readrs")
	b.LD(b.AddrConst("regs"))
	b.Add(n.rsv)
	b.LoadIndirect()
	b.ST(n.vrs)
	b.RetSub("readrs")

	// writerd: regs[rdv] = res.
	b.BeginSub("writerd")
	b.LD(b.AddrConst("regs"))
	b.Add(n.rdv)
	b.StoreIndirect(n.res)
	b.RetSub("writerd")

	// setwidth: wmask/wsign/wover from the destination register kind.
	b.BeginSub("setwidth")
	b.LD(n.rdv)
	b.Sub(b.Const(8))
	b.JumpIfBorrow("sw16")
	b.LD(b.Const(0xFFFFFF))
	b.ST(n.wmask)
	b.LD(b.Const(0x800000))
	b.ST(n.wsign)
	b.LD(b.Const(0x1000000))
	b.ST(n.wover)
	b.RetSub("setwidth")
	b.Label("sw16")
	b.LD(b.Const(0xFFFF))
	b.ST(n.wmask)
	b.LD(b.Const(0x8000))
	b.ST(n.wsign)
	b.LD(b.Const(0x10000))
	b.ST(n.wover)
	b.RetSub("setwidth")

	// setzn: gz = (res == 0), gn = (res & wsign) != 0.
	b.BeginSub("setzn")
	b.LD(n.res)
	zl := n.lbl("zn")
	zd := n.lbl("znd")
	b.JumpIfZero(zl)
	b.LoadImm(0)
	b.ST(n.gz)
	b.Goto(zd)
	b.Label(zl)
	b.LoadImm(1)
	b.ST(n.gz)
	b.Label(zd)
	b.LD(n.res)
	b.ANDi(n.wsign)
	n.setFlag(n.gn)
	b.RetSub("setzn")

	// div2: dv = dv >> 1, dbit = old bit 0 (values < 2^24).
	b.BeginSub("div2")
	b.LD(n.dv)
	b.ANDi(b.Const(1))
	b.ST(n.dbit)
	b.LD(n.dv)
	b.Sub(n.dbit)
	b.ST(n.dv)
	// Restoring division by two, unrolled over 24 result bits.
	b.LoadImm(0)
	b.ST(n.t1)
	for k := 23; k >= 0; k-- {
		skip := n.lbl("dv")
		b.LD(n.dv)
		b.Sub(b.Const(2 << uint(k)))
		b.ST(n.t2)
		b.JumpIfBorrow(skip)
		b.LD(n.t2)
		b.ST(n.dv)
		b.LD(n.t1)
		b.Add(b.Const(1 << uint(k)))
		b.ST(n.t1)
		b.Label(skip)
	}
	b.LD(n.t1)
	b.ST(n.dv)
	b.RetSub("div2")
}

var (
	buildOnce sync.Once
	built     *verisc.Program
	buildErr  error
)

// Program returns the emulator image, building it once.
func Program() (*verisc.Program, error) {
	buildOnce.Do(func() { built, buildErr = Build() })
	return built, buildErr
}

// GuestInput frames a DynaRisc program and its input stream for the
// emulator's input port.
func GuestInput(p *dynarisc.Program, input []uint16) []uint32 {
	return AppendGuestInput(make([]uint32, 0, 2+len(p.Words)+len(input)), p, input)
}

// appendGuestFraming appends the input-port header for p — its origin,
// code length and code words — the prefix shared by every guest input.
func appendGuestFraming(dst []uint32, p *dynarisc.Program) []uint32 {
	dst = append(dst, uint32(p.Org), uint32(len(p.Words)))
	for _, w := range p.Words {
		dst = append(dst, uint32(w))
	}
	return dst
}

// AppendGuestInput appends the input-port framing for p followed by the
// guest input words to dst — the companion to GuestInput for callers
// that reuse the framing buffer across runs.
func AppendGuestInput(dst []uint32, p *dynarisc.Program, input []uint16) []uint32 {
	dst = appendGuestFraming(dst, p)
	for _, w := range input {
		dst = append(dst, uint32(w))
	}
	return dst
}

// AppendGuestInputBytes is AppendGuestInput for a byte-stream guest
// input (one byte per word, the archived decoders' convention), skipping
// the intermediate []uint16 conversion.
func AppendGuestInputBytes(dst []uint32, p *dynarisc.Program, input []byte) []uint32 {
	dst = appendGuestFraming(dst, p)
	for _, b := range input {
		dst = append(dst, uint32(b))
	}
	return dst
}

// Runner owns one reusable VeRisc machine and its input framing buffer.
// The restore pipeline keeps one Runner per worker so nested-decoding a
// frame no longer allocates the GuestBase+guestWords cell array (tens of
// megabytes) afresh each time; the machine is Reset between runs, which
// clears only the dirtied cells. Every run loads the emulator image it is
// given — a restore passes the one its archive's Bootstrap carries — so
// one Runner serves archives written by any build. A Runner is not safe
// for concurrent use; each goroutine needs its own.
type Runner struct {
	cpu *verisc.CPU
	in  []uint32
}

// NewRunner returns an empty Runner; the machine is allocated lazily on
// first use and grown (never shrunk) to fit the largest guest seen.
func NewRunner() *Runner { return &Runner{} }

// exec prepares the reused machine and executes the emulator image emu to
// completion; the guest's output words remain in r.cpu.Out.
func (r *Runner) exec(emu *verisc.Program, guestWords int, maxSteps uint64, frame func([]uint32) []uint32) error {
	if guestWords <= 0 {
		guestWords = DefaultGuestWords
	}
	need := GuestBase + guestWords
	if r.cpu == nil {
		r.cpu = verisc.NewCPU(need)
	} else {
		r.cpu.Reset()
		r.cpu.EnsureMem(need)
	}
	r.cpu.MaxSteps = maxSteps
	if err := r.cpu.Load(emu.Org, emu.Cells); err != nil {
		return err
	}
	r.in = frame(r.in[:0])
	r.cpu.In = r.in
	if err := r.cpu.Run(); err != nil {
		return fmt.Errorf("nested: %w", err)
	}
	return nil
}

// Run executes the DynaRisc program p on the emulator image emu, reusing
// the machine, and returns the guest's output words, with the same
// semantics as the package-level Run.
func (r *Runner) Run(emu *verisc.Program, p *dynarisc.Program, input []uint16, guestWords int, maxSteps uint64) ([]uint16, error) {
	err := r.exec(emu, guestWords, maxSteps, func(dst []uint32) []uint32 {
		return AppendGuestInput(dst, p, input)
	})
	if err != nil {
		return nil, err
	}
	out := make([]uint16, len(r.cpu.Out))
	for i, w := range r.cpu.Out {
		out[i] = uint16(w)
	}
	return out, nil
}

// RunAppendBytes executes p on emu with a word input stream and appends
// the guest's output bytes (low byte of each word) to dst — one
// conversion, straight from the host machine's output cells into the
// caller's buffer.
func (r *Runner) RunAppendBytes(dst []byte, emu *verisc.Program, p *dynarisc.Program, input []uint16, guestWords int, maxSteps uint64) ([]byte, error) {
	err := r.exec(emu, guestWords, maxSteps, func(buf []uint32) []uint32 {
		return AppendGuestInput(buf, p, input)
	})
	if err != nil {
		return nil, err
	}
	return r.cpu.AppendOutBytes(dst), nil
}

// RunBytesAppendBytes is RunAppendBytes for a byte guest input stream,
// skipping the byte→word staging copy on the way in as well.
func (r *Runner) RunBytesAppendBytes(dst []byte, emu *verisc.Program, p *dynarisc.Program, input []byte, guestWords int, maxSteps uint64) ([]byte, error) {
	err := r.exec(emu, guestWords, maxSteps, func(buf []uint32) []uint32 {
		return AppendGuestInputBytes(buf, p, input)
	})
	if err != nil {
		return nil, err
	}
	return r.cpu.AppendOutBytes(dst), nil
}

// Run executes a DynaRisc program under the emulator this package builds
// (Program) and returns the guest's output words. guestWords sizes guest
// memory (0 selects DefaultGuestWords); maxSteps bounds host VeRisc steps
// (0 = unlimited).
func Run(p *dynarisc.Program, input []uint16, guestWords int, maxSteps uint64) ([]uint16, error) {
	emu, err := Program()
	if err != nil {
		return nil, err
	}
	return NewRunner().Run(emu, p, input, guestWords, maxSteps)
}
