package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regsim/internal/exper"
)

// stubServer serves canned responses so the client's decode and error paths
// can be exercised without a live simulator behind them.
func stubServer(t *testing.T, handler http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

func writeBody(w http.ResponseWriter, status int, body string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write([]byte(body))
}

// TestClientDecodesAPIErrors: every structured non-2xx reply must surface as
// a *APIError carrying the status, code, and backoff hint.
func TestClientDecodesAPIErrors(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		header     http.Header
		body       string
		wantCode   string
		wantRetry  int
		wantIsRetr bool
	}{
		{
			name:       "overloaded 429 with body hint",
			status:     http.StatusTooManyRequests,
			body:       `{"error":{"code":"overloaded","message":"queue full","retryAfterSeconds":3}}`,
			wantCode:   CodeOverloaded,
			wantRetry:  3,
			wantIsRetr: true,
		},
		{
			name:       "overloaded 429 with header-only hint",
			status:     http.StatusTooManyRequests,
			header:     http.Header{"Retry-After": []string{"7"}},
			body:       `{"error":{"code":"overloaded","message":"queue full"}}`,
			wantCode:   CodeOverloaded,
			wantRetry:  7,
			wantIsRetr: true,
		},
		{
			name:     "deadline 504",
			status:   http.StatusGatewayTimeout,
			body:     `{"error":{"code":"deadline_exceeded","message":"too slow"}}`,
			wantCode: CodeDeadlineExceeded,
		},
		{
			name:     "internal 500",
			status:   http.StatusInternalServerError,
			body:     `{"error":{"code":"internal","message":"simulator exploded"}}`,
			wantCode: CodeInternal,
		},
		{
			name:       "draining 503",
			status:     http.StatusServiceUnavailable,
			body:       `{"error":{"code":"draining","message":"going away","retryAfterSeconds":1}}`,
			wantCode:   CodeDraining,
			wantRetry:  1,
			wantIsRetr: true,
		},
		{
			name:     "validation 400 with field",
			status:   http.StatusBadRequest,
			body:     `{"error":{"code":"invalid_argument","message":"bad width","field":"width"}}`,
			wantCode: CodeInvalidArgument,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
				for k, vs := range tc.header {
					for _, v := range vs {
						w.Header().Add(k, v)
					}
				}
				writeBody(w, tc.status, tc.body)
			})
			_, err := c.Simulate(context.Background(), exper.Spec{Bench: "compress"})
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("want *APIError, got %T: %v", err, err)
			}
			if apiErr.Status != tc.status {
				t.Errorf("Status = %d, want %d", apiErr.Status, tc.status)
			}
			if apiErr.Code != tc.wantCode {
				t.Errorf("Code = %q, want %q", apiErr.Code, tc.wantCode)
			}
			if apiErr.RetryAfterSeconds != tc.wantRetry {
				t.Errorf("RetryAfterSeconds = %d, want %d", apiErr.RetryAfterSeconds, tc.wantRetry)
			}
			if apiErr.IsRetryable() != tc.wantIsRetr {
				t.Errorf("IsRetryable() = %v, want %v", apiErr.IsRetryable(), tc.wantIsRetr)
			}
		})
	}
}

// TestClientNonEnvelopeErrorBody: a non-2xx reply whose body is not the
// structured envelope (a proxy's HTML error page, a truncated body) must
// still come back as an error naming the HTTP status — never a nil error or
// a panic.
func TestClientNonEnvelopeErrorBody(t *testing.T) {
	for _, body := range []string{
		"<html>bad gateway</html>",
		`{"not":"the envelope"}`,
		`{"error":`,
		"",
	} {
		c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
			writeBody(w, http.StatusBadGateway, body)
		})
		_, err := c.Simulate(context.Background(), exper.Spec{Bench: "compress"})
		if err == nil {
			t.Fatalf("body %q: nil error for a 502", body)
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			t.Fatalf("body %q: decoded %v out of a non-envelope body", body, apiErr)
		}
		if !strings.Contains(err.Error(), "502") {
			t.Fatalf("body %q: error does not name the HTTP status: %v", body, err)
		}
	}
}

// TestClientMalformedSuccessBody: a 200 whose body is not the response type
// must surface as a decode error, not silently yield a zero value.
func TestClientMalformedSuccessBody(t *testing.T) {
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		writeBody(w, http.StatusOK, `{"spec":{"bench":42}}`)
	})
	_, err := c.Simulate(context.Background(), exper.Spec{Bench: "compress"})
	if err == nil {
		t.Fatal("nil error for an undecodable 200 body")
	}
	if !strings.Contains(err.Error(), "decode") {
		t.Fatalf("want a decode error, got: %v", err)
	}
}

// TestClientContextCancellation: cancelling the context mid-request must
// unwind promptly with context.Canceled in the chain.
func TestClientContextCancellation(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		select {
		case <-release:
		case <-r.Context().Done():
		}
		writeBody(w, http.StatusOK, `{}`)
	})
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Simulate(ctx, exper.Spec{Bench: "compress"})
		done <- err
	}()
	<-inHandler
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled in the chain, got: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not unwind after cancellation")
	}
}

// TestClientTimeoutHint: a configured Client.Timeout must reach the server
// as the ?timeout= query hint on simulation endpoints.
func TestClientTimeoutHint(t *testing.T) {
	var got string
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		got = r.URL.Query().Get("timeout")
		writeBody(w, http.StatusOK, `{"count":0,"results":[],"elapsedMS":0}`)
	})
	c.Timeout = 1500 * time.Millisecond
	if _, err := c.Sweep(context.Background(), []exper.Spec{{Bench: "compress"}}); err != nil {
		t.Fatal(err)
	}
	if got != "1.5s" {
		t.Fatalf("?timeout= hint = %q, want 1.5s", got)
	}
}

// TestAPIErrorRoundTrip: the envelope the server writes is exactly what the
// client decodes — the two halves share one vocabulary.
// TestClientRetryAfterBackoff: a client with a retry policy must honour the
// Retry-After hint — back off, retry, and succeed when the 429 clears —
// without the caller seeing the refusal at all.
func TestClientRetryAfterBackoff(t *testing.T) {
	var calls int32
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "1")
			writeBody(w, http.StatusTooManyRequests,
				`{"error":{"code":"overloaded","message":"queue full","retryAfterSeconds":1}}`)
			return
		}
		writeBody(w, http.StatusOK, `{"status":"ok"}`)
	}).WithRetry(3, 50*time.Millisecond) // cap the 1s hint so the test is fast

	start := time.Now()
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("retry did not absorb the 429: %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (429 then 200)", got)
	}
	// The backoff is jittered in [cap/2, cap]; it must actually have waited.
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("retried after %v, sooner than half the backoff cap", elapsed)
	}
}

// TestClientRetryBounded: a server that never stops refusing exhausts the
// attempt budget and surfaces the structured refusal, not an infinite loop.
func TestClientRetryBounded(t *testing.T) {
	var calls int32
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		writeBody(w, http.StatusServiceUnavailable,
			`{"error":{"code":"draining","message":"shutting down","retryAfterSeconds":1}}`)
	}).WithRetry(3, 10*time.Millisecond)

	err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeDraining {
		t.Fatalf("err = %v, want the final draining APIError", err)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("server saw %d calls, want exactly maxAttempts=3", got)
	}
}

// TestClientRetryNotOnValidation: only retryable refusals retry — a 400
// validation error must come back after exactly one attempt.
func TestClientRetryNotOnValidation(t *testing.T) {
	var calls int32
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		writeBody(w, http.StatusBadRequest,
			`{"error":{"code":"invalid_argument","field":"width","message":"width 5 unsupported"}}`)
	}).WithRetry(5, 10*time.Millisecond)

	var apiErr *APIError
	if err := c.Health(context.Background()); !errors.As(err, &apiErr) || apiErr.Code != CodeInvalidArgument {
		t.Fatalf("err = %v, want invalid_argument", err)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (validation errors never retry)", got)
	}
}

// TestClientWithTimeoutClone: WithTimeout must not mutate the receiver, so
// one shared client can serve concurrent per-request timeouts.
func TestClientWithTimeoutClone(t *testing.T) {
	base := NewClient("http://example.invalid")
	clone := base.WithTimeout(5 * time.Second)
	if base.Timeout != 0 {
		t.Fatalf("WithTimeout mutated the receiver: Timeout=%v", base.Timeout)
	}
	if clone.Timeout != 5*time.Second {
		t.Fatalf("clone Timeout = %v, want 5s", clone.Timeout)
	}
	if clone.pool != base.pool {
		t.Fatal("clone does not share the connections")
	}
}

func TestAPIErrorRoundTrip(t *testing.T) {
	in := &APIError{Status: 429, Code: CodeOverloaded, Message: "m", Field: "f", RetryAfterSeconds: 2}
	data, err := json.Marshal(errorBody{Error: in})
	if err != nil {
		t.Fatal(err)
	}
	var out errorBody
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	// Status travels on the response line, not in the body.
	in.Status = 0
	if *out.Error != *in {
		t.Fatalf("round trip changed the error: %+v != %+v", out.Error, in)
	}
}
