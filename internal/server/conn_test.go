package server

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// idleConns is how many connections the client's pool holds.
func idleConns(c *Client) int {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return len(c.pool.idle)
}

// TestClientReusesOneConnection: sequential calls to one server ride one
// keep-alive connection, whether a reply carries a Content-Length or comes
// chunked.
func TestClientReusesOneConnection(t *testing.T) {
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/load" {
			// Flushing before the end, without a Content-Length, makes the
			// server chunk the reply.
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"status":"ok",`))
			w.(http.Flusher).Flush()
			w.Write([]byte(`"capacity":9}`))
			return
		}
		WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
	})
	defer c.Close()
	const calls = 10
	for i := range calls {
		if i%2 == 0 {
			if err := c.Health(context.Background()); err != nil {
				t.Fatal(err)
			}
			continue
		}
		load, err := c.Load(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if load.Capacity != 9 {
			t.Fatalf("chunked reply decoded as %+v", load)
		}
	}
	if n := c.Dials(); n != 1 {
		t.Fatalf("%d sequential calls dialled %d times, want once", calls, n)
	}
}

// TestClientHonoursConnectionClose: a reply marked Connection: close ends
// its connection, so the next call dials a new one without a failed attempt.
func TestClientHonoursConnectionClose(t *testing.T) {
	var calls atomic.Int64
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Connection", "close")
		WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
	})
	defer c.Close()
	for range 3 {
		if err := c.Health(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := idleConns(c); n != 0 {
			t.Fatalf("a Connection: close reply left %d pooled connections", n)
		}
	}
	if n, d := calls.Load(), c.Dials(); n != 3 || d != 3 {
		t.Fatalf("%d requests over %d dials, want 3 over 3", n, d)
	}
}

// TestClientRetriesStaleConnection: a pooled connection the server closed
// while it sat idle fails before the reply's status line; the call goes
// once more over a fresh connection and succeeds. A fresh connection that
// fails the same way is not retried.
func TestClientRetriesStaleConnection(t *testing.T) {
	var calls atomic.Int64
	var slam atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if slam.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	defer c.Close()
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.CloseClientConnections()
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("call over a connection the server closed: %v", err)
	}
	if n, d := calls.Load(), c.Dials(); n != 2 || d != 2 {
		t.Fatalf("%d requests over %d dials, want 2 over 2", n, d)
	}

	// The server now drops every request it reads: the pooled connection
	// fails, its retry over a fresh one fails too, and there it stops.
	slam.Store(true)
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("a server that drops every request answered")
	}
	if n, d := calls.Load(), c.Dials(); n != 4 || d != 3 {
		t.Fatalf("after a dropped call: %d requests over %d dials, want 4 over 3", n, d)
	}
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("a server that drops every request answered")
	}
	if n, d := calls.Load(), c.Dials(); n != 5 || d != 4 {
		t.Fatalf("a fresh connection's failure was retried: %d requests over %d dials, want 5 over 4", n, d)
	}
}

// TestClientDeadlineMidReply: a deadline that fires while the reply is
// arriving ends the call with the context's error, and the connection it
// cut is dropped rather than pooled.
func TestClientDeadlineMidReply(t *testing.T) {
	release := make(chan struct{})
	c := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "100")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"status":`))
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	t.Cleanup(func() { close(release) }) // runs before the listener closes
	defer c.Close()
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Load(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context's deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("the call outlived its deadline by %v", elapsed)
	}
	if n := idleConns(c); n != 0 {
		t.Fatalf("the cut connection went back to the pool (%d idle)", n)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := c.Dials(); d != 2 {
		t.Fatalf("dials = %d, want 2: the call after the cut one must dial afresh", d)
	}
}

// TestClientDialsTLS: an https base URL is dialled through crypto/tls. The
// test server's certificate is self-signed, so the handshake, not an HTTP
// exchange, is what fails. Base URLs and targets the client cannot send
// fail before any byte is written.
func TestClientDialsTLS(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
	}))
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the refused handshake
	ts.StartTLS()
	defer ts.Close()
	c := NewClient(ts.URL)
	defer c.Close()
	var verr *tls.CertificateVerificationError
	if err := c.Health(context.Background()); !errors.As(err, &verr) {
		t.Fatalf("err = %v, want a certificate verification failure", err)
	}
	if err := NewClient("ftp://example.invalid").Health(context.Background()); err == nil {
		t.Fatal("an ftp base URL answered")
	}
	if _, err := c.Get(context.Background(), "/healthz HTTP/1.1\r\nX-Injected: 1"); err == nil ||
		!strings.Contains(err.Error(), "invalid request target") {
		t.Fatalf("a target that would split the request line: err = %v", err)
	}
}
