package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"regsim/internal/workload"
)

// TestResultJSONRoundTrip: JSON is the wire format (HTTP responses, paper
// -json), so a Result must encode→decode→compare losslessly — including the
// live-register and port histograms of tracked runs. The disk tiers use the
// binary encoding instead (resultcodec_test.go).
func TestResultJSONRoundTrip(t *testing.T) {
	p, err := workload.Build("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, track := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.TrackLiveRegisters = track
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(5_000)
		if err != nil {
			t.Fatal(err)
		}
		if track && res.Live[0].TotalLive() == nil {
			t.Fatal("tracked run produced no live histograms; test would be vacuous")
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("track=%v: marshal: %v", track, err)
		}
		var back Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("track=%v: unmarshal: %v", track, err)
		}
		if !reflect.DeepEqual(*res, back) {
			t.Errorf("track=%v: Result does not round-trip through JSON:\n got %+v\nwant %+v",
				track, back, *res)
		}
	}
}

// TestResultJSONAllFieldsExported guards the wire format structurally: a
// future unexported field would silently drop out of every JSON response.
func TestResultJSONAllFieldsExported(t *testing.T) {
	typ := reflect.TypeOf(Result{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); !f.IsExported() {
			t.Errorf("Result.%s is unexported; it would be missing from JSON responses", f.Name)
		}
	}
}
