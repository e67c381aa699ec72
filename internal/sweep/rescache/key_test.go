package rescache

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestKeyWriterMatchesJSON: a KeyWriter writes the bytes json.Marshal
// writes for a struct of the same fields, omitted ones included, and keys
// what Fingerprint keys.
func TestKeyWriterMatchesJSON(t *testing.T) {
	type mat struct {
		Name  string `json:"name"`
		N     int64  `json:"n"`
		On    bool   `json:"on"`
		Skip  string `json:"skip,omitempty"`
		Label string `json:"<label>"`
	}
	for _, m := range []mat{
		{},
		{Name: "compress", N: 50_000, On: true, Skip: "kept", Label: "x"},
		{Name: "q\"\\<>&\u2028\u2029\x00\x1f\b\f\n\r\t\x7fé\xff\xc3", N: -1 << 63, Label: "\ufffd"},
	} {
		var w KeyWriter
		w.Str("name", m.Name)
		w.Int("n", m.N)
		w.Bool("on", m.On)
		if m.Skip != "" {
			w.Str("skip", m.Skip)
		}
		w.Str("<label>", m.Label)
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Preimage(); !bytes.Equal(got, want) {
			t.Errorf("preimage\n got  %s\n want %s", got, want)
		}
		if got, want := w.Key(), Fingerprint(m); got != want {
			t.Errorf("key %s, want %s", got, want)
		}
	}
	var empty KeyWriter
	if got, want := empty.Key(), Fingerprint(struct{}{}); string(empty.Preimage()) != "{}" || got != want {
		t.Errorf("an empty writer wrote %s, key %s; want {} and %s", empty.Preimage(), got, want)
	}
}
