package rescache

import (
	"encoding/json"
	"os"
	"path/filepath"
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
// carries exactly the committed golden bytes, which are also exactly what
// marshalling the envelope struct around the value produces — so a payload
// written before Put encoded its envelope in one pass stays valid byte for
// byte.
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
	if string(got) != string(want) {
		t.Errorf("Put payload differs from the golden entry:\n got %s\nwant %s", got, want)
	}
	val, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	twoPass, err := json.Marshal(envelope{Format: FormatVersion, Key: key, Value: val})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(twoPass) {
		t.Errorf("Put payload differs from the marshalled envelope:\n got %s\nwant %s", got, twoPass)
	}
	var back core.Result
	if !s.Get(key, &back) {
		t.Fatal("golden entry did not read back")
	}
}
