package ref

import (
	"math/rand/v2"
	"testing"

	"regsim/internal/isa"
	"regsim/internal/prog"
)

func build(t *testing.T, f func(b *prog.Builder)) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("test")
	f(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSumLoop(t *testing.T) {
	p := build(t, func(b *prog.Builder) {
		b.MovI(1, 0)
		b.MovI(2, 100)
		b.Label("loop")
		b.Add(1, 1, 2)
		b.SubI(2, 2, 1)
		b.Bne(2, "loop")
		b.MovI(3, prog.DataBase)
		b.St(1, 3, 0)
		b.Halt()
	})
	it := New(p)
	n, err := it.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !it.Halted {
		t.Fatal("did not halt")
	}
	if got := it.Mem.Read64(prog.DataBase); got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
	// 2 setup + 100×3 loop + 2 store setup + 1 halt = 305.
	if n != 305 {
		t.Errorf("retired %d, want 305", n)
	}
}

func TestFloatingPoint(t *testing.T) {
	p := build(t, func(b *prog.Builder) {
		b.InitFloat(prog.DataBase, 2.5)
		b.InitFloat(prog.DataBase+8, 4.0)
		b.MovI(1, prog.DataBase)
		b.FLd(1, 1, 0)
		b.FLd(2, 1, 8)
		b.FMul(3, 1, 2)  // 10
		b.FAdd(4, 3, 1)  // 12.5
		b.FDivD(5, 4, 2) // 3.125
		b.FtoI(2, 5)     // 3
		b.FSt(5, 1, 16)
		b.Halt()
	})
	it := New(p)
	if _, err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := it.IntReg[2]; got != 3 {
		t.Errorf("ftoi result = %d", got)
	}
	if got := it.Mem.Read64(prog.DataBase + 16); got != 0x4009000000000000 { // 3.125
		t.Errorf("stored bits = %#x", got)
	}
}

func TestCallAndReturn(t *testing.T) {
	p := build(t, func(b *prog.Builder) {
		b.Jmp("main")
		b.Label("double")
		b.Add(2, 1, 1)
		b.Jr(20)
		b.Label("main")
		b.MovI(1, 21)
		b.Call(20, "double")
		b.Mov(3, 2)
		b.Halt()
	})
	it := New(p)
	if _, err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if !it.Halted || it.IntReg[3] != 42 {
		t.Errorf("halted=%v r3=%d", it.Halted, it.IntReg[3])
	}
}

func TestZeroRegisterDiscardsWrites(t *testing.T) {
	p := build(t, func(b *prog.Builder) {
		b.MovI(isa.ZeroReg, 99) // write to r31: discarded
		b.Mov(1, isa.ZeroReg)   // read r31: zero
		b.Halt()
	})
	it := New(p)
	if _, err := it.Run(10); err != nil {
		t.Fatal(err)
	}
	if it.IntReg[1] != 0 {
		t.Errorf("r1 = %d, want 0 (zero register)", it.IntReg[1])
	}
}

func TestStepAfterHaltErrors(t *testing.T) {
	p := build(t, func(b *prog.Builder) { b.Halt() })
	it := New(p)
	if _, err := it.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Step(); err == nil {
		t.Error("step after halt succeeded")
	}
}

func TestRunsOffTextErrors(t *testing.T) {
	p := &prog.Program{Name: "nofall", Text: []isa.Inst{{Op: isa.OpAdd, Rd: 1, Ra: 2, Rb: 3}}}
	it := New(p)
	if _, err := it.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Step(); err == nil {
		t.Error("running off text succeeded")
	}
}

func TestRunBudget(t *testing.T) {
	p := build(t, func(b *prog.Builder) {
		b.Label("spin")
		b.AddI(1, 1, 1)
		b.Jmp("spin")
	})
	it := New(p)
	n, err := it.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 || it.Halted {
		t.Errorf("n=%d halted=%v", n, it.Halted)
	}
}

func TestChecksumSensitivity(t *testing.T) {
	mk := func(v int32) uint64 {
		p := build(t, func(b *prog.Builder) {
			b.MovI(1, v)
			b.Halt()
		})
		it := New(p)
		if _, err := it.Run(10); err != nil {
			t.Fatal(err)
		}
		return it.Sum.Value()
	}
	if mk(1) == mk(2) {
		t.Error("checksum insensitive to values")
	}
	if mk(7) != mk(7) {
		t.Error("checksum not deterministic")
	}
}

func TestChecksumOrderSensitivity(t *testing.T) {
	var a, b Checksum
	a.Add(1, isa.OpAdd, 10)
	a.Add(2, isa.OpSub, 20)
	b.Add(2, isa.OpSub, 20)
	b.Add(1, isa.OpAdd, 10)
	if a.Value() == b.Value() {
		t.Error("checksum insensitive to order")
	}
}

// TestChecksumWordFold: Add's collapsed folds (a PC below 2^32, the
// one-byte opcode) must equal the FNV-1a byte loop over the little-endian
// (PC, opcode, result) words, on random triples a third of which carry a PC
// of 2^32 or more, and on the boundary PCs.
func TestChecksumWordFold(t *testing.T) {
	byteLoop := func(h uint64, words ...uint64) uint64 {
		if h == 0 {
			h = fnvOffset
		}
		for _, w := range words {
			for i := 0; i < 8; i++ {
				h = (h ^ (w >> (8 * i) & 0xff)) * fnvPrime
			}
		}
		return h
	}
	rng := rand.New(rand.NewPCG(1, 2))
	var c Checksum
	want := uint64(0)
	check := func(pc uint64, op isa.Op, result uint64) {
		t.Helper()
		c.Add(pc, op, result)
		want = byteLoop(want, pc, uint64(op), result)
		if c.Value() != want {
			t.Fatalf("Add(%#x, %d, %#x) = %#x, byte loop %#x", pc, op, result, c.Value(), want)
		}
	}
	for _, pc := range []uint64{0, 0xff, 1<<32 - 1, 1 << 32, 1<<64 - 1} {
		check(pc, isa.Op(rng.Uint32()), rng.Uint64())
	}
	for i := 0; i < 300_000; i++ {
		pc := uint64(rng.Uint32())
		if i%3 == 0 {
			pc = rng.Uint64() | 1<<32
		}
		check(pc, isa.Op(rng.Uint32()), rng.Uint64())
	}
}

func TestStoreForwardingSemantics(t *testing.T) {
	// A store followed by a load of the same address must see the value
	// (the pipeline must match this via its store queue).
	p := build(t, func(b *prog.Builder) {
		b.MovI(1, prog.DataBase)
		b.MovI(2, 77)
		b.St(2, 1, 0)
		b.Ld(3, 1, 0)
		b.Halt()
	})
	it := New(p)
	if _, err := it.Run(10); err != nil {
		t.Fatal(err)
	}
	if it.IntReg[3] != 77 {
		t.Errorf("load after store = %d", it.IntReg[3])
	}
}
