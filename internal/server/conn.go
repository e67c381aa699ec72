package server

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Connection-pool bounds. Neither is an option: a client keeps at most
// maxIdleConns connections waiting for its next call and closes any beyond,
// and reads at most maxReplyBytes of one reply.
const (
	maxIdleConns  = 16
	maxReplyBytes = 64 << 20
)

// connPool is one Client's keep-alive connections to its server: plain
// HTTP/1.1 over TCP, or over crypto/tls for an https base URL. A call takes
// the most recently returned idle connection or dials one, and hands it back
// when the reply leaves it reusable. The clones WithTimeout makes share the
// pool.
type connPool struct {
	addr string      // host:port to dial
	host string      // the Host header
	tls  *tls.Config // nil for plain http
	err  error       // an unusable base URL, reported by every call

	dials atomic.Int64

	mu     sync.Mutex
	idle   []*conn
	closed bool
}

// conn is one pooled connection and its buffers.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	req []byte // the request being written, reused across calls
}

func newConnPool(u *url.URL) *connPool {
	p := &connPool{host: u.Host}
	port := u.Port()
	switch u.Scheme {
	case "http":
		if port == "" {
			port = "80"
		}
	case "https":
		if port == "" {
			port = "443"
		}
		p.tls = &tls.Config{ServerName: u.Hostname()}
	default:
		p.err = fmt.Errorf("unsupported scheme %q (want http or https)", u.Scheme)
	}
	p.addr = net.JoinHostPort(u.Hostname(), port)
	return p
}

// get returns an idle connection (reused true) or dials a fresh one.
func (p *connPool) get(ctx context.Context) (cn *conn, reused bool, err error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		cn = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return cn, true, nil
	}
	p.mu.Unlock()
	cn, err = p.dial(ctx)
	return cn, false, err
}

func (p *connPool) dial(ctx context.Context) (*conn, error) {
	if p.err != nil {
		return nil, p.err
	}
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	p.dials.Add(1)
	if p.tls != nil {
		tc := tls.Client(nc, p.tls)
		if err := tc.HandshakeContext(ctx); err != nil {
			nc.Close()
			return nil, err
		}
		nc = tc
	}
	return &conn{nc: nc, br: bufio.NewReader(nc)}, nil
}

// put returns a connection whose last reply was read in full.
func (p *connPool) put(cn *conn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdleConns {
		p.idle = append(p.idle, cn)
		cn = nil
	}
	p.mu.Unlock()
	if cn != nil {
		cn.nc.Close()
	}
}

// close closes the idle connections; a connection returned later is closed
// instead of kept.
func (p *connPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, cn := range idle {
		cn.nc.Close()
	}
}

// roundTrip sends one request and reads its reply, both in the calling
// goroutine. A reused connection the server has closed meanwhile fails
// before the reply's status line; the request then goes once more over a
// fresh connection, which is safe because every endpoint is a pure
// computation.
func (p *connPool) roundTrip(ctx context.Context, method, target string, body []byte, traceID string) (*http.Response, []byte, error) {
	if strings.ContainsAny(target, " \r\n") {
		return nil, nil, fmt.Errorf("invalid request target %q", target)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		cn, reused, err := p.get(ctx)
		if err != nil {
			return nil, nil, withContext(ctx, err)
		}
		resp, data, err := cn.exchange(ctx, method, p.host, target, body, traceID)
		switch {
		case err == nil:
			if resp.Close {
				cn.nc.Close()
			} else {
				p.put(cn)
			}
			return resp, data, nil
		case errors.Is(err, errNoStatus) && reused && ctx.Err() == nil:
			cn.nc.Close()
			continue
		default:
			cn.nc.Close()
			return nil, nil, withContext(ctx, err)
		}
	}
}

// withContext makes a failure the ended context caused match its error.
func withContext(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil && !errors.Is(err, cerr) {
		return fmt.Errorf("%w (%v)", cerr, err)
	}
	return err
}

// errNoStatus marks a failure before any byte of the reply arrived.
var errNoStatus = errors.New("connection failed before the reply")

// exchange writes one request in a single write and reads the reply. The
// context's deadline and cancellation reach the blocked read or write
// through the connection's deadline; a connection whose deadline was so set
// comes back as an error, or as a reply marked Close, and is never reused.
func (cn *conn) exchange(ctx context.Context, method, host, target string, body []byte, traceID string) (*http.Response, []byte, error) {
	stop := context.AfterFunc(ctx, func() { cn.nc.SetDeadline(time.Unix(1, 0)) })
	resp, data, err := cn.sendRecv(method, host, target, body, traceID)
	if !stop() && err == nil {
		// The context ended during the exchange: its deadline is on the
		// connection now.
		resp.Close = true
	}
	return resp, data, err
}

// sendRecv writes the request and reads the whole reply.
func (cn *conn) sendRecv(method, host, target string, body []byte, traceID string) (*http.Response, []byte, error) {
	b := append(cn.req[:0], method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\n"...)
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	if traceID != "" {
		b = append(b, "X-Trace-Id: "...)
		b = append(b, traceID...)
		b = append(b, "\r\n"...)
	}
	b = append(append(b, "\r\n"...), body...)
	cn.req = b
	if _, err := cn.nc.Write(b); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errNoStatus, err)
	}
	if _, err := cn.br.Peek(1); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errNoStatus, err)
	}
	resp, err := http.ReadResponse(cn.br, &http.Request{Method: method})
	if err != nil {
		return nil, nil, err
	}
	if resp.ContentLength > maxReplyBytes {
		return nil, nil, fmt.Errorf("reply of %d bytes exceeds the %d-byte limit", resp.ContentLength, maxReplyBytes)
	}
	var data []byte
	if resp.ContentLength >= 0 {
		data = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes+1))
		if err == nil && len(data) > maxReplyBytes {
			err = fmt.Errorf("reply exceeds the %d-byte limit", maxReplyBytes)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}
