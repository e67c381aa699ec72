package cache

import (
	"testing"
)

func smallCfg(kind Kind) Config {
	return Config{
		Kind:         kind,
		SizeBytes:    1 << 10, // 1 KB: 16 sets × 2 ways × 32 B
		Assoc:        2,
		LineBytes:    32,
		HitLatency:   1,
		FetchLatency: 16,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: 1024, Assoc: 2, LineBytes: 24, HitLatency: 1},    // line not pow2
		{SizeBytes: 1000, Assoc: 2, LineBytes: 32, HitLatency: 1},    // size not divisible
		{SizeBytes: 96 * 32, Assoc: 1, LineBytes: 32, HitLatency: 1}, // sets not pow2
		{SizeBytes: 1024, Assoc: 2, LineBytes: 32, HitLatency: 0},    // bad latency
		{SizeBytes: 1024, Assoc: 2, LineBytes: 32, HitLatency: 1, FetchLatency: -1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted: %+v", i, cfg)
				}
			}()
			NewData(cfg)
		}()
	}
	// The paper's baseline must be valid.
	NewData(DefaultData())
}

func TestDefaultDataGeometry(t *testing.T) {
	cfg := DefaultData()
	if cfg.SizeBytes != 64<<10 || cfg.Assoc != 2 || cfg.LineBytes != 32 ||
		cfg.HitLatency != 1 || cfg.FetchLatency != 16 || cfg.Kind != LockupFree {
		t.Errorf("baseline config %+v does not match the paper", cfg)
	}
}

func TestHitAfterFill(t *testing.T) {
	c := NewData(smallCfg(LockupFree))
	r := c.Load(0x1000, 10)
	if !r.Miss {
		t.Fatal("cold load hit")
	}
	// hit latency 1 + fetch 16 → arrives at 27, register written at 28.
	if r.DataReady != 28 {
		t.Errorf("miss DataReady = %d, want 28", r.DataReady)
	}
	for now := int64(11); now <= 27; now++ {
		c.Tick(now)
	}
	r2 := c.Load(0x1008, 28) // same 32-byte line
	if r2.Miss {
		t.Error("load after fill missed")
	}
	// hit: 1-cycle access + load delay slot.
	if r2.DataReady != 30 {
		t.Errorf("hit DataReady = %d, want 30", r2.DataReady)
	}
}

func TestPerfectNeverMisses(t *testing.T) {
	c := NewData(smallCfg(Perfect))
	for i := 0; i < 100; i++ {
		r := c.Load(uint64(i)*4096, int64(i))
		if r.Miss {
			t.Fatal("perfect cache missed")
		}
		if r.DataReady != int64(i)+2 {
			t.Fatalf("perfect DataReady = %d", r.DataReady)
		}
	}
	if c.Stats().LoadMisses != 0 {
		t.Error("perfect cache counted misses")
	}
}

func TestInvertedMSHRMerging(t *testing.T) {
	c := NewData(smallCfg(LockupFree))
	r1 := c.Load(0x2000, 5)
	r2 := c.Load(0x2008, 6) // same line, one cycle later
	r3 := c.Load(0x2010, 7) // same line again
	if !r1.Miss {
		t.Fatal("first load did not miss")
	}
	if r2.Miss || r3.Miss {
		t.Error("merged accesses counted as misses (they start no fetch)")
	}
	if r2.Fill != r1.Fill || r3.Fill != r1.Fill {
		t.Error("merged loads not sharing the fill")
	}
	// All registers are written the cycle after the block arrives.
	if r2.DataReady != r1.DataReady || r3.DataReady != r1.DataReady {
		t.Errorf("merged DataReady %d/%d/%d differ", r1.DataReady, r2.DataReady, r3.DataReady)
	}
	s := c.Stats()
	if s.FillsStarted != 1 || s.FillsMerged != 2 || s.LoadMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if c.OutstandingFills() != 1 {
		t.Errorf("outstanding fills = %d", c.OutstandingFills())
	}
}

func TestManyOutstandingMisses(t *testing.T) {
	// The inverted MSHR supports as many outstanding misses as there are
	// destinations; no structural limit below that.
	c := NewData(smallCfg(LockupFree))
	for i := 0; i < 64; i++ {
		r := c.Load(uint64(0x10000+i*4096), 3)
		if !r.Miss {
			t.Fatalf("load %d did not miss", i)
		}
	}
	if c.OutstandingFills() != 64 {
		t.Errorf("outstanding = %d, want 64", c.OutstandingFills())
	}
}

func TestSquashedFillNotInstalled(t *testing.T) {
	c := NewData(smallCfg(LockupFree))
	r := c.Load(0x3000, 1)
	c.CancelWaiter(r.Fill)
	for now := int64(2); now <= 30; now++ {
		c.Tick(now)
	}
	if c.Stats().FillsDropped != 1 {
		t.Error("fully squashed fill not dropped")
	}
	if r2 := c.Load(0x3000, 40); !r2.Miss {
		t.Error("squashed fill was installed anyway")
	}
}

func TestPartiallySquashedFillInstalls(t *testing.T) {
	c := NewData(smallCfg(LockupFree))
	r1 := c.Load(0x3000, 1)
	c.Load(0x3008, 2) // merged waiter survives
	c.CancelWaiter(r1.Fill)
	for now := int64(2); now <= 30; now++ {
		c.Tick(now)
	}
	if r3 := c.Load(0x3000, 40); r3.Miss {
		t.Error("fill with a surviving waiter was not installed")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := NewData(smallCfg(LockupFree))
	// Three lines mapping to the same set of a 2-way cache. Set count is
	// 16, so addresses 16*32=512 bytes apart share a set.
	a, b2, c3 := uint64(0), uint64(512), uint64(1024)
	fill := func(addr uint64, now int64) int64 {
		c.Load(addr, now)
		for t0 := now + 1; t0 <= now+18; t0++ {
			c.Tick(t0)
		}
		return now + 20
	}
	now := fill(a, 1)
	now = fill(b2, now)
	// Touch a so b2 is LRU.
	if r := c.Load(a, now); r.Miss {
		t.Fatal("a evicted prematurely")
	}
	now = fill(c3, now+1) // must evict b2
	if r := c.Load(a, now); r.Miss {
		t.Error("LRU evicted the recently used line")
	}
	if r := c.Load(b2, now+1); !r.Miss {
		t.Error("LRU kept the least recently used line")
	}
}

func TestLockupBlocksProbes(t *testing.T) {
	c := NewData(smallCfg(Lockup))
	if !c.CanAccess(1) {
		t.Fatal("idle lockup cache not accessible")
	}
	r := c.Load(0x4000, 1)
	if !r.Miss || r.DataReady != 19 {
		t.Fatalf("lockup miss = %+v", r)
	}
	// Busy until the line is written: arrival at 18 (1-cycle probe +
	// 16-cycle fetch), plus the one-cycle line write.
	for now := int64(2); now < 19; now++ {
		if c.CanAccess(now) {
			t.Fatalf("lockup cache accessible at %d during miss service", now)
		}
		c.Tick(now)
	}
	if !c.CanAccess(19) {
		t.Error("lockup cache still busy after fill")
	}
	c.Tick(19)
	if r2 := c.Load(0x4000, 19); r2.Miss {
		t.Error("lockup fill not installed")
	}
}

func TestLockupFreeAlwaysAccessible(t *testing.T) {
	c := NewData(smallCfg(LockupFree))
	c.Load(0x5000, 1)
	if !c.CanAccess(2) {
		t.Error("lockup-free cache blocked during miss")
	}
}

func TestStoreWriteAroundNoAllocate(t *testing.T) {
	c := NewData(smallCfg(LockupFree))
	c.Store(0x6000, 1) // miss: write-around, no allocation
	if r := c.Load(0x6000, 2); !r.Miss {
		t.Error("store miss allocated a line")
	}
	s := c.Stats()
	if s.StoreProbes != 1 || s.StoreHits != 0 {
		t.Errorf("store stats = %+v", s)
	}
}

func TestStoreHitTouchesLRU(t *testing.T) {
	c := NewData(smallCfg(LockupFree))
	fill := func(addr uint64, now int64) int64 {
		c.Load(addr, now)
		for t0 := now + 1; t0 <= now+18; t0++ {
			c.Tick(t0)
		}
		return now + 20
	}
	now := fill(0, 1)
	now = fill(512, now)
	c.Store(0, now) // write-through hit keeps line 0 recent
	now = fill(1024, now+1)
	if r := c.Load(0, now); r.Miss {
		t.Error("store hit did not refresh LRU")
	}
	if c.Stats().StoreHits != 1 {
		t.Errorf("store hits = %d", c.Stats().StoreHits)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Perfect: "perfect", Lockup: "lockup", LockupFree: "lockup-free"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestICache(t *testing.T) {
	ic := NewICache(16)
	readyAt := ic.Fetch(0x1_0000, 5)
	if readyAt == 0 {
		t.Fatal("cold instruction fetch hit")
	}
	if readyAt != 21 {
		t.Errorf("miss readyAt = %d, want 21", readyAt)
	}
	if ic.Fetch(0x1_0008, 21) != 0 {
		t.Error("same-line fetch missed after fill")
	}
	if ic.Fetch(0x1_0020, 22) == 0 {
		t.Error("next-line fetch hit without fill")
	}
	if ic.Accesses != 3 || ic.Misses != 2 {
		t.Errorf("icache stats = %d/%d", ic.Accesses, ic.Misses)
	}
}

func TestICacheLRU(t *testing.T) {
	ic := NewICache(16)
	// 1024 sets × 32 B: addresses 32 KB apart share a set.
	const stride = 1024 * 32
	ic.Fetch(0, 1)
	ic.Fetch(stride, 2)
	ic.Fetch(0, 3) // touch
	ic.Fetch(2*stride, 4)
	if ic.Fetch(0, 5) != 0 {
		t.Error("icache evicted MRU line")
	}
	if ic.Fetch(stride, 6) == 0 {
		t.Error("icache kept LRU line")
	}
}
