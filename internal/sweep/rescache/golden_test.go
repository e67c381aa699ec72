package rescache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"regsim/internal/cache"
	"regsim/internal/core"
)

// goldenResult is a fixed Result with every kind of field populated,
// including the tracked-run histograms.
func goldenResult() *core.Result {
	r := &core.Result{
		Cycles: 52_113, Committed: 50_000, Issued: 61_870,
		IssuedLoads: 14_020, IssuedStores: 6_011, IssuedCondBr: 7_705,
		CommittedLoads: 12_400, CommittedCondBr: 6_650,
		LoadMisses: 913, ForwardedLoads: 77, Mispredicts: 1_055,
		NoFreeRegCycles: 3_100, DispatchRegStalls: 2_980, DispatchQueueFullStalls: 410,
		Halted: false, Checksum: 0x9e3779b97f4a7c15,
		DCache:         cache.Stats{LoadAccesses: 13_900, LoadMisses: 913, StoreProbes: 6_000, StoreHits: 5_880, FillsStarted: 700, FillsMerged: 213, FillsDropped: 4},
		ICacheAccesses: 16_000, ICacheMisses: 12,
	}
	for f := range r.Live {
		for c := range r.Live[f].Cum {
			r.Live[f].Cum[c] = []int64{0, int64(f + 1), int64(c + 2), 0, 9}
		}
		r.Ports[f].Reads = []int64{40_000, 9_000, int64(f)}
		r.Ports[f].Writes = []int64{45_000, 7_000}
	}
	return r
}

// TestPutGoldenBytes pins the result-cache payload format: Put's record
// carries exactly the committed golden bytes, which are also exactly the
// envelope laid out by hand around the Result's binary encoding.
func TestPutGoldenBytes(t *testing.T) {
	s := testStore(t)
	key := Fingerprint("golden-result")
	res := goldenResult()
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	rec := onlyRecord(t, s)
	if rec.key != key {
		t.Errorf("record key %q, want %q", rec.key, key)
	}
	got := rec.data
	want, err := os.ReadFile(filepath.Join("testdata", "result-entry.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Put payload differs from the golden entry:\n got %x\nwant %x", got, want)
	}
	if byHand := envelope(FormatVersion, key, encoded(t, res)); !bytes.Equal(got, byHand) {
		t.Errorf("Put payload differs from the envelope laid out by hand:\n got %x\nwant %x", got, byHand)
	}
	var back core.Result
	if !s.Get(key, &back) || !reflect.DeepEqual(&back, res) {
		t.Fatalf("golden entry read back as %+v", back)
	}
}

// TestPlantedFormat1EntryIsAStaleMiss: the golden Result's entry as format
// 1 wrote it (a JSON envelope, kept as testdata) reads as a quiet miss,
// leaves the index, and heals on the next put.
func TestPlantedFormat1EntryIsAStaleMiss(t *testing.T) {
	s := testStore(t)
	key := Fingerprint("golden-result")
	old, err := os.ReadFile(filepath.Join("testdata", "result-entry-format1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBytes(key, old); err != nil {
		t.Fatal(err)
	}
	var back core.Result
	if s.Get(key, &back) {
		t.Fatal("format-1 entry served as a hit")
	}
	if st := s.Stats(); st.Misses != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 1 quiet miss", st)
	}
	if indexed(s, key) {
		t.Error("format-1 entry was not dropped from the index")
	}
	if err := s.Put(key, goldenResult()); err != nil {
		t.Fatal(err)
	}
	if !reopen(t, s).Get(key, &back) || !reflect.DeepEqual(&back, goldenResult()) {
		t.Errorf("healed slot read back as %+v", back)
	}
}
