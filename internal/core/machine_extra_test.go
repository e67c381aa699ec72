package core

import (
	"strings"
	"testing"

	"regsim/internal/isa"
	"regsim/internal/prog"
	"regsim/internal/rename"
	"regsim/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	p := sumLoop(3)
	bad := []func(*Config){
		func(c *Config) { c.Width = 6 },
		func(c *Config) { c.QueueSize = 0 },
		func(c *Config) { c.RegsPerFile = 31 },
		func(c *Config) { c.ICacheMissPenalty = -1 },
		func(c *Config) { c.FrontEndDelay = -2 },
		func(c *Config) { c.WriteBufferEntries = -1 },
		func(c *Config) { c.InsertPerCycle = -3 },
		func(c *Config) { c.DCache.LineBytes = 24 },
		func(c *Config) { c.DCache.MSHREntries = -1 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(cfg, p); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestInvalidProgramRejected(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := New(cfg, &prog.Program{Name: "empty"}); err == nil {
		t.Error("empty program accepted")
	}
}

// TestRunsOffTextIsAnError: a program whose correct path falls off the end
// of the text segment must surface an error, not hang.
func TestRunsOffTextIsAnError(t *testing.T) {
	p := &prog.Program{
		Name: "falls-off",
		Text: []isa.Inst{{Op: isa.OpAdd, Rd: 1, Ra: 2, Rb: 3}},
	}
	m, err := New(DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err == nil || !strings.Contains(err.Error(), "ran off") {
		t.Errorf("running off text: err = %v", err)
	}
}

// TestZeroRegisterWritesDiscardedInPipeline: writes to r31/f31 allocate no
// rename resources and read back as zero.
func TestZeroRegisterWritesDiscardedInPipeline(t *testing.T) {
	b := prog.NewBuilder("zerodst")
	for i := 0; i < 50; i++ {
		b.MovI(isa.ZeroReg, 99) // discarded
	}
	b.Mov(1, isa.ZeroReg)
	b.MovI(2, prog.DataBase)
	b.St(1, 2, 0)
	b.Halt()
	p := b.MustBuild()
	cfg := DefaultConfig()
	cfg.RegsPerFile = 32 // 1 free register: zero-dst writes must not consume it
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("did not halt (zero-register writes consumed rename resources?)")
	}
	if got := m.mem.Read64(prog.DataBase); got != 0 {
		t.Errorf("zero register read back %d", got)
	}
}

// TestBudgetOvershootBounded: Run stops within one commit bundle of the
// budget.
func TestBudgetOvershootBounded(t *testing.T) {
	p, _ := workload.Build("espresso")
	cfg := DefaultConfig()
	m, _ := New(cfg, p)
	res, err := m.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 10_000 || res.Committed >= 10_000+int64(2*cfg.Width) {
		t.Errorf("committed %d, want within one bundle of 10000", res.Committed)
	}
}

// TestFrontEndDelayCost: a larger front-end refill delay makes branchy code
// slower.
func TestFrontEndDelayCost(t *testing.T) {
	p, _ := workload.Build("gcc1")
	run := func(delay int) int64 {
		cfg := DefaultConfig()
		cfg.FrontEndDelay = delay
		m, _ := New(cfg, p)
		res, err := m.Run(10_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if fast, slow := run(1), run(8); slow <= fast {
		t.Errorf("front-end delay 8 (%d cycles) not slower than 1 (%d)", slow, fast)
	}
}

// TestICacheMissPenaltyCost: instruction-cache misses cost what the config
// says (straight-line code pays one per line).
func TestICacheMissPenaltyCost(t *testing.T) {
	p := sumLoop(2000)
	run := func(pen int) int64 {
		cfg := DefaultConfig()
		cfg.ICacheMissPenalty = pen
		m, _ := New(cfg, p)
		res, err := m.Run(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	// Loopy code warms up: the penalty's effect must be bounded but nonzero.
	fast, slow := run(0), run(40)
	if slow <= fast {
		t.Error("icache penalty free")
	}
	if slow > fast+int64(40*8) {
		t.Errorf("loop code paid %d extra cycles for cold icache (too many)", slow-fast)
	}
}

// TestLiveHistogramsAccountEveryCycle: with tracking on, every cycle lands
// in every cumulative histogram, and cumulative sums are ordered.
func TestLiveHistogramsAccountEveryCycle(t *testing.T) {
	p, _ := workload.Build("mdljsp2")
	cfg := DefaultConfig()
	cfg.TrackLiveRegisters = true
	cfg.RegsPerFile = 128
	m, _ := New(cfg, p)
	res, err := m.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	for file := 0; file < 2; file++ {
		var prevP90 int
		for c := 0; c < 4; c++ {
			hist := res.Live[file].Cum[c]
			var total int64
			maxN := 0
			for n, cnt := range hist {
				total += cnt
				if cnt > 0 {
					maxN = n
				}
			}
			if total != res.Cycles {
				t.Errorf("file %d cum%d: histogram mass %d != cycles %d", file, c, total, res.Cycles)
			}
			if maxN < prevP90 {
				t.Errorf("file %d cum%d: cumulative ordering violated", file, c)
			}
			prevP90 = maxN
		}
		// Total live can never exceed capacity + the hardwired zero.
		top := res.Live[file].TotalLive()
		for n := cfg.RegsPerFile + 2; n < len(top); n++ {
			if top[n] != 0 {
				t.Errorf("file %d: %d live registers recorded with capacity %d", file, n, cfg.RegsPerFile)
			}
		}
	}
}

// TestMinimumRegistersMakeProgress: the paper's deadlock boundary — 32
// registers per file is the smallest workable machine and must still finish
// real work under both exception models.
func TestMinimumRegistersMakeProgress(t *testing.T) {
	p := sumLoop(2000)
	for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
		cfg := DefaultConfig()
		cfg.RegsPerFile = 32
		cfg.Model = model
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(1 << 20)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if !res.Halted {
			t.Fatalf("%s: 32-register machine did not finish", model)
		}
	}
}

// TestMisrollCaughtUntracked: an untracked precise run keeps no mapping
// chains, so the rename audit cannot compare the map table against them;
// a misprediction rollback that restores a wrong mapping must still be
// caught, in the recovery's own cycle, by the map table's liveness check.
func TestMisrollCaughtUntracked(t *testing.T) {
	p, err := workload.Build("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	var m *Machine
	var misrolledAt int64
	cfg.Tracer = func(ev Event) {
		if ev.Kind == EvRecover && misrolledAt == 0 && m.now > 1000 {
			if m.ren.MisrollForTest(isa.IntFile, 5) != rename.PhysZero {
				misrolledAt = m.now
			}
		}
	}
	if m, err = New(cfg, p); err != nil {
		t.Fatal(err)
	}
	if m.ren.Kills() {
		t.Fatal("an untracked precise run keeps redefine kills")
	}
	_, err = m.Run(50_000)
	if misrolledAt == 0 {
		t.Fatal("mutation never fired: no recovery after cycle 1000")
	}
	inv, ok := err.(*InvariantError)
	if !ok {
		t.Fatalf("misrolled map table not caught: err = %v", err)
	}
	if inv.Check != "rename audit" || inv.Cycle != misrolledAt || !strings.Contains(inv.Detail, "map table v5") {
		t.Fatalf("misroll at cycle %d reported as %v; want the rename audit's map-table check in that cycle", misrolledAt, inv)
	}
}
