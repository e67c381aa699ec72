package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"regsim/internal/exper"
	"regsim/internal/rename"
)

// encoderBytes renders v the way WriteJSON rendered it before its one-pass
// writer: json.Encoder with SetIndent("", "  ").
func encoderBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkWritten compares one recorded reply with the encoder's rendering of
// want, and its headers with the body it carries.
func checkWritten(t *testing.T, rec *httptest.ResponseRecorder, status int, want []byte) {
	t.Helper()
	if rec.Code != status {
		t.Errorf("status %d, want %d", rec.Code, status)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("writer and json.Encoder differ\nwriter:  %q\nencoder: %q", rec.Body.Bytes(), want)
	}
}

// TestWriteJSONMatchesEncoder pins the wire format: for every kind of
// document the daemons send, WriteJSON's bytes are json.Encoder's with a
// two-space indent, trailing newline included.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	suite := exper.NewSuite(3_000)
	srv, err := New(Config{Suite: suite})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(spec exper.Spec) SimulateResponse {
		t.Helper()
		spec = FinishSpec(spec, suite.Budget)
		res, err := suite.RunContext(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		return SimulateResponse{Spec: spec, Result: res, ElapsedMS: 1.25}
	}
	untracked := run(exper.Spec{Bench: "compress"})
	tracked := run(exper.Spec{Bench: "gcc1", Track: true})
	run(exper.Spec{Bench: "tomcatv", Width: 8, Regs: 256})
	sibling := run(exper.Spec{Bench: "tomcatv", Width: 8, Regs: 160, Model: rename.Imprecise})
	if st := suite.SweepStats(); st.Shared != 1 {
		t.Fatalf("the sibling case was not served by its trunk: %+v", st)
	}
	odd := "quote \" backslash \\ html <a href=\"x\">&amp;</a> separators \u2028\u2029 tab\t nul\x00 é invalid \xff"
	cases := []struct {
		name string
		v    any
	}{
		{"untracked result", untracked},
		{"tracked result", tracked},
		{"sibling-served result", sibling},
		{"sweep", SweepResponse{Count: 2, Results: []SimulateResponse{untracked, sibling}, ElapsedMS: 3.5}},
		{"estimate", EstimateResponse{Spec: untracked.Spec, Estimate: estimateOf(untracked.Spec, untracked.Result), ElapsedMS: 0.01}},
		{"metrics", srv.metricsDoc()},
		{"odd strings", map[string]any{odd: []string{odd, "", "\\\""}}},
		{"empty containers", []any{map[string]any{}, []any{}, []any{[]any{}, map[string]any{}, []any{[]any{}}},
			struct {
				A []int          `json:"a"`
				M map[string]int `json:"m"`
				N []int          `json:"n"`
			}{A: []int{}, M: map[string]int{}}}},
		{"empty object", struct{}{}},
		{"empty array", []int{}},
		{"scalars", []any{0, -1.5e-300, 1e21, true, false, nil, "x"}},
		{"bare number", 42},
		{"bare string", "<&>"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			WriteJSON(rec, http.StatusAccepted, tc.v)
			checkWritten(t, rec, http.StatusAccepted, encoderBytes(t, tc.v))
		})
	}
}

// TestWriteErrorMatchesEncoder: refusals render through the same writer,
// with the Retry-After hint mirrored into the header.
func TestWriteErrorMatchesEncoder(t *testing.T) {
	for _, e := range []*APIError{
		{Status: http.StatusTooManyRequests, Code: CodeOverloaded, Message: "full <queue> &   \"quoted\" \\", RetryAfterSeconds: 3},
		{Status: http.StatusBadRequest, Code: CodeInvalidArgument, Field: "specs[2].width", Message: "issue width 5 unsupported"},
		{Status: http.StatusNotFound, Code: CodeNotFound},
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, e)
		checkWritten(t, rec, e.Status, encoderBytes(t, errorBody{Error: e}))
		want := ""
		if e.RetryAfterSeconds > 0 {
			want = strconv.Itoa(e.RetryAfterSeconds)
		}
		if got := rec.Header().Get("Retry-After"); got != want {
			t.Errorf("%s: Retry-After %q, want %q", e.Code, got, want)
		}
	}
}

// FuzzWriteJSON: any JSON document, decoded to the generic form, renders
// the same through WriteJSON as through json.Encoder.
func FuzzWriteJSON(f *testing.F) {
	for _, seed := range []string{
		`{}`, `[]`, `null`, `0`, `" <>&\"\\"`, `[{},[],[[]],{"a":{}}]`,
		`{"spec":{"bench":"ora"},"result":{"Cycles":12,"IPC":[1.5,2]},"elapsedMS":0.25}`,
		`[1e300,-0.0,1.5e-7,true,false,null,"é\t"]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) != nil {
			return
		}
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		if want := encoderBytes(t, v); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("input %q\nwriter:  %q\nencoder: %q", data, rec.Body.Bytes(), want)
		}
	})
}
