// Package ref implements the functional reference interpreter: a sequential,
// one-instruction-at-a-time, perfect-memory execution of a program.
//
// The interpreter is the architectural-correctness oracle for the
// out-of-order pipeline: any machine configuration — issue width, dispatch
// queue size, register count, cache organisation, exception model — must
// commit exactly the same instruction stream, produce the same final
// register and memory state, and match the same commit checksum.
package ref

import (
	"fmt"

	"regsim/internal/isa"
	"regsim/internal/mem"
	"regsim/internal/prog"
)

// Interp is a functional interpreter over a text segment and memory image.
type Interp struct {
	Text []isa.Inst
	Mem  *mem.Memory

	PC     uint64
	IntReg [isa.NumArchRegs]uint64
	FPReg  [isa.NumArchRegs]uint64 // IEEE-754 bit patterns

	Halted bool
	// Retired counts executed instructions, including the halt.
	Retired uint64
	// Sum accumulates the commit checksum.
	Sum Checksum
}

// New returns an interpreter at the program's entry point with its data image
// applied to a fresh memory.
func New(p *prog.Program) *Interp {
	it := &Interp{Text: p.Text, Mem: mem.New(), PC: p.Entry}
	for _, dw := range p.Data {
		it.Mem.Write64(dw.Addr, dw.Value)
	}
	return it
}

// ReadReg returns the raw contents of an architectural register
// (zero registers read as zero).
func (it *Interp) ReadReg(r isa.Reg) uint64 {
	if r.IsZero() {
		return 0
	}
	if r.File == isa.IntFile {
		return it.IntReg[r.Idx]
	}
	return it.FPReg[r.Idx]
}

func (it *Interp) writeReg(r isa.Reg, v uint64) {
	if r.IsZero() {
		return
	}
	if r.File == isa.IntFile {
		it.IntReg[r.Idx] = v
	} else {
		it.FPReg[r.Idx] = v
	}
}

// Step executes one instruction. It returns the instruction executed.
// Stepping a halted interpreter is an error, as is running off the end of
// the text segment (which, unlike the pipeline's wrong-path fetch, can only
// happen on the architecturally correct path and therefore indicates a
// malformed program).
func (it *Interp) Step() (isa.Inst, error) {
	if it.Halted {
		return isa.Inst{}, fmt.Errorf("ref: step after halt")
	}
	if it.PC >= uint64(len(it.Text)) {
		return isa.Inst{}, fmt.Errorf("ref: PC %d outside text (%d instructions)", it.PC, len(it.Text))
	}
	in := it.Text[it.PC]
	next := it.PC + 1
	var result uint64
	hasResult := false

	switch in.Op.Class() {
	case isa.ClassIntALU, isa.ClassIntMul:
		a := it.ReadReg(isa.Reg{File: isa.IntFile, Idx: in.Ra})
		b := uint64(int64(in.Imm))
		if !in.UseImm {
			b = it.ReadReg(isa.Reg{File: isa.IntFile, Idx: in.Rb})
		}
		result = isa.EvalInt(in.Op, a, b)
		hasResult = true
	case isa.ClassFP:
		switch in.Op {
		case isa.OpItoF:
			result = isa.EvalItoF(it.ReadReg(isa.Reg{File: isa.IntFile, Idx: in.Ra}))
		case isa.OpFtoI:
			result = isa.EvalFtoI(it.ReadReg(isa.Reg{File: isa.FPFile, Idx: in.Ra}))
		default:
			a := it.ReadReg(isa.Reg{File: isa.FPFile, Idx: in.Ra})
			b := it.ReadReg(isa.Reg{File: isa.FPFile, Idx: in.Rb})
			result = isa.EvalFP(in.Op, a, b)
		}
		hasResult = true
	case isa.ClassFPDiv:
		a := it.ReadReg(isa.Reg{File: isa.FPFile, Idx: in.Ra})
		b := it.ReadReg(isa.Reg{File: isa.FPFile, Idx: in.Rb})
		result = isa.EvalFP(in.Op, a, b)
		hasResult = true
	case isa.ClassLoad:
		addr := it.ReadReg(isa.Reg{File: isa.IntFile, Idx: in.Ra}) + uint64(int64(in.Imm))
		result = it.Mem.Read64(mem.Align(addr))
		hasResult = true
	case isa.ClassStore:
		addr := it.ReadReg(isa.Reg{File: isa.IntFile, Idx: in.Ra}) + uint64(int64(in.Imm))
		vf := isa.IntFile
		if in.Op == isa.OpFSt {
			vf = isa.FPFile
		}
		v := it.ReadReg(isa.Reg{File: vf, Idx: in.Rb})
		it.Mem.Write64(mem.Align(addr), v)
		result = v // stores contribute their value to the checksum
	case isa.ClassCondBr:
		f := isa.IntFile
		if in.Op == isa.OpFBeq || in.Op == isa.OpFBne {
			f = isa.FPFile
		}
		raw := it.ReadReg(isa.Reg{File: f, Idx: in.Ra})
		if isa.CondTaken(in.Op, raw) {
			next = uint64(uint32(in.Imm))
			result = 1
		}
	case isa.ClassCtrl:
		switch in.Op {
		case isa.OpJmp:
			next = uint64(uint32(in.Imm))
		case isa.OpCall:
			result = it.PC + 1
			hasResult = true
			next = uint64(uint32(in.Imm))
		case isa.OpJr:
			next = it.ReadReg(isa.Reg{File: isa.IntFile, Idx: in.Ra})
		}
	case isa.ClassHalt:
		it.Halted = true
	}

	if hasResult {
		if d, ok := in.Dst(); ok {
			it.writeReg(d, result)
		}
	}
	it.Sum.Add(it.PC, in.Op, result)
	it.Retired++
	it.PC = next
	return in, nil
}

// Run executes until halt or until max instructions have retired, returning
// the number retired.
func (it *Interp) Run(max uint64) (uint64, error) {
	start := it.Retired
	for !it.Halted && it.Retired-start < max {
		if _, err := it.Step(); err != nil {
			return it.Retired - start, err
		}
	}
	return it.Retired - start, nil
}

// Checksum is an FNV-1a fold over the retired instruction stream: for each
// retired instruction it absorbs (PC, opcode, result). The out-of-order
// pipeline computes the same fold at commit time; equality of checksums means
// the pipeline committed the same instructions with the same results in the
// same order.
type Checksum struct {
	h uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	// Folding a zero byte only multiplies by fnvPrime, so a run of k zero
	// bytes is one multiplication by fnvPrime^k (mod 2^64).
	fnvPrime5 = fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime % (1 << 64)
	fnvPrime8 = fnvPrime5 * fnvPrime * fnvPrime * fnvPrime % (1 << 64)
)

// Add absorbs one retired instruction: the FNV-1a byte fold of its PC,
// opcode and result, each a little-endian 64-bit word. Folds whose high
// bytes are known to be zero collapse into one multiplication: a PC below
// 2^32 folds its four low bytes, the last one times fnvPrime^5, and the
// opcode (one byte) folds as one multiplication by fnvPrime^8.
// TestChecksumWordFold pins the result to the byte loop.
func (c *Checksum) Add(pc uint64, op isa.Op, result uint64) {
	h := c.h
	if h == 0 {
		h = fnvOffset
	}
	if pc>>32 == 0 {
		h = (h ^ (pc & 0xff)) * fnvPrime
		h = (h ^ (pc >> 8 & 0xff)) * fnvPrime
		h = (h ^ (pc >> 16 & 0xff)) * fnvPrime
		h = (h ^ (pc >> 24)) * fnvPrime5
	} else {
		h = foldWord(h, pc)
	}
	h = (h ^ uint64(op)) * fnvPrime8
	c.h = foldWord(h, result)
}

// foldWord absorbs one 64-bit word byte-by-byte, little-endian — the FNV-1a
// byte loop unrolled with the accumulator in a register. The math is
// byte-for-byte identical to the rolled loop; committed checksums must not
// change.
func foldWord(h, v uint64) uint64 {
	h = (h ^ (v & 0xff)) * fnvPrime
	h = (h ^ (v >> 8 & 0xff)) * fnvPrime
	h = (h ^ (v >> 16 & 0xff)) * fnvPrime
	h = (h ^ (v >> 24 & 0xff)) * fnvPrime
	h = (h ^ (v >> 32 & 0xff)) * fnvPrime
	h = (h ^ (v >> 40 & 0xff)) * fnvPrime
	h = (h ^ (v >> 48 & 0xff)) * fnvPrime
	h = (h ^ (v >> 56)) * fnvPrime
	return h
}

// Value returns the accumulated checksum.
func (c *Checksum) Value() uint64 { return c.h }

// State returns the raw fold state, for checkpoint serialization. Zero means
// "nothing absorbed yet" (the FNV offset basis is applied lazily by Add).
func (c *Checksum) State() uint64 { return c.h }

// SetState restores a fold state previously obtained from State.
func (c *Checksum) SetState(h uint64) { c.h = h }
