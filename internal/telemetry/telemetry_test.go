package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	// 100 observations: 50 ones, 40 tens, 10 hundreds.
	for i := 0; i < 50; i++ {
		h.Record(1)
	}
	for i := 0; i < 40; i++ {
		h.Record(10)
	}
	for i := 0; i < 10; i++ {
		h.Record(100)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.P50(); got != 1 {
		t.Errorf("p50 %d, want 1", got)
	}
	if got := h.P90(); got != 10 {
		t.Errorf("p90 %d, want 10", got)
	}
	if got := h.P99(); got != 100 {
		t.Errorf("p99 %d, want 100", got)
	}
	if got := h.Max(); got != 100 {
		t.Errorf("max %d, want 100", got)
	}
	if got := h.Mean(); got < 14.4 || got > 14.6 {
		t.Errorf("mean %.2f, want 14.5", got)
	}
}

func TestHistogramLargeValuesBucketBound(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Record(1)
	}
	h.Record(1000) // falls in the [512,1023] log2 bucket
	if got := h.P99(); got != 1 {
		t.Errorf("p99 %d, want 1", got)
	}
	// The quantile that lands in the large bucket reports the bucket's
	// upper bound clamped to the observed max.
	if got := h.Quantile(1.0); got != 1000 {
		t.Errorf("q100 %d, want observed max 1000", got)
	}
	h.Record(1023)
	if got := h.Quantile(1.0); got != 1023 {
		t.Errorf("q100 %d, want 1023", got)
	}
}

func TestHistogramNegativeClampsAndEmpty(t *testing.T) {
	var h Histogram
	if h.P50() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Record(-5)
	if h.Count() != 1 || h.Max() != 0 || h.P50() != 0 {
		t.Fatal("negative observation did not clamp to zero")
	}
}

func TestHistogramBucketsCoverEverything(t *testing.T) {
	var h Histogram
	vals := []int64{0, 1, 2, 3, 7, 100, 127, 128, 300, 5000, 1 << 40}
	for _, v := range vals {
		h.Record(v)
	}
	var n int64
	for _, b := range h.Buckets() {
		if b.Lo > b.Hi || b.Count <= 0 {
			t.Errorf("bad bucket %+v", b)
		}
		n += b.Count
	}
	if n != int64(len(vals)) {
		t.Errorf("buckets cover %d observations, want %d", n, len(vals))
	}
}

func TestCycleAccountCheck(t *testing.T) {
	var a CycleAccount
	for i := 0; i < 10; i++ {
		a.Observe(BucketCommitFull)
	}
	a.Observe(BucketDCacheMiss)
	a.Observe(BucketOther)
	if a.Total() != 12 {
		t.Fatalf("total %d", a.Total())
	}
	if err := a.Check(12); err != nil {
		t.Fatalf("check: %v", err)
	}
	if err := a.Check(13); err == nil {
		t.Fatal("mismatched check passed")
	}
	if f := a.Fraction(BucketCommitFull); f < 0.83 || f > 0.84 {
		t.Errorf("fraction %f", f)
	}
}

func TestBucketNamesStable(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Buckets() {
		name := b.String()
		if name == "" || strings.Contains(name, "bucket(") {
			t.Errorf("bucket %d has no name", b)
		}
		if seen[name] {
			t.Errorf("duplicate bucket name %q", name)
		}
		seen[name] = true
	}
	if len(seen) != int(NumBuckets) {
		t.Errorf("%d names, want %d", len(seen), NumBuckets)
	}
}

func TestTelemetryJSONRoundTrip(t *testing.T) {
	tel := New()
	tel.Account.Observe(BucketCommitFull)
	tel.Account.Observe(BucketOther)
	tel.DispatchToIssue.Record(3)
	tel.LoadMissLatency.Record(42)
	raw, err := json.Marshal(tel)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
	if snap.CycleAccounting.TotalCycles != 2 {
		t.Errorf("total cycles %d", snap.CycleAccounting.TotalCycles)
	}
	if snap.CycleAccounting.Cycles["commit-full"] != 1 {
		t.Errorf("commit-full %d", snap.CycleAccounting.Cycles["commit-full"])
	}
	if snap.Latencies["dispatchToIssue"].Count != 1 || snap.Latencies["dispatchToIssue"].P50 != 3 {
		t.Errorf("dispatchToIssue %+v", snap.Latencies["dispatchToIssue"])
	}
	if snap.Latencies["loadMiss"].Max != 42 {
		t.Errorf("loadMiss %+v", snap.Latencies["loadMiss"])
	}
}

func TestProgressString(t *testing.T) {
	p := Progress{Label: "tomcatv/w4", Cycles: 1000, Committed: 2500, Budget: 10000, IPC: 2.5}
	s := p.String()
	for _, want := range []string{"tomcatv/w4", "cycle 1000", "2500 committed", "25%", "IPC 2.50"} {
		if !strings.Contains(s, want) {
			t.Errorf("progress line %q missing %q", s, want)
		}
	}
	p.Done = true
	if !strings.Contains(p.String(), "done") {
		t.Errorf("final heartbeat %q not marked done", p.String())
	}
}

// TestSweepStatsShared: runs answered by a sibling are reported apart from
// simulated ones, in the one-line summary and in the JSON encoding.
func TestSweepStatsShared(t *testing.T) {
	st := SweepStats{Workers: 2, Runs: 625, Shared: 239}
	if s := st.String(); !strings.Contains(s, "625 simulated, 239 shared") {
		t.Errorf("summary %q does not report simulated and shared runs apart", s)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"shared":239`) {
		t.Errorf("JSON %s has no shared count", blob)
	}
}
