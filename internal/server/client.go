package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"regsim/internal/core"
	"regsim/internal/exper"
	"regsim/internal/obs"
)

// Client is the typed Go client for the serving layer. Construct with
// NewClient; the zero value is not usable. All methods honour the context
// and return *APIError for structured server refusals (validation failures,
// 429 overload, 503 drain), so callers can branch on the code or the
// IsRetryable hint.
//
// The client speaks plain HTTP/1.1 over keep-alive connections of its own,
// or over crypto/tls for an https URL, and reads each reply in the calling
// goroutine; it consults no proxy environment. Close releases the idle
// connections.
type Client struct {
	prefix string // the base URL's path, ahead of every request path
	pool   *connPool
	// Timeout, when non-zero, is sent as the ?timeout= per-request
	// deadline hint on simulate and sweep calls (the server clamps it to
	// its MaxTimeout). The context bounds the client side either way.
	Timeout time.Duration

	// maxAttempts/maxBackoff are the retry policy installed by WithRetry;
	// maxAttempts <= 1 means one attempt, no retries (the default).
	maxAttempts int
	maxBackoff  time.Duration
}

// NewClient returns a client for a serving instance, e.g.
// NewClient("http://localhost:8265"). It has no overall timeout: simulation
// requests are long-poll shaped, so deadlines belong to the per-call context
// (and the Timeout hint). A base URL that is not http or https fails every
// call.
func NewClient(baseURL string) *Client {
	u, err := url.Parse(strings.TrimRight(baseURL, "/"))
	if err != nil {
		return &Client{pool: &connPool{err: err}}
	}
	return &Client{prefix: u.EscapedPath(), pool: newConnPool(u)}
}

// Close closes the client's idle connections. A call after Close still
// works, over a connection it closes when done.
func (c *Client) Close() { c.pool.close() }

// Dials reports how many connections the client and its clones have opened.
func (c *Client) Dials() int64 { return c.pool.dials.Load() }

// WithRetry enables automatic retries of retryable refusals (429 overload,
// 503 drain): up to maxAttempts total attempts, sleeping the server's
// Retry-After hint between them with full jitter (a uniform draw from
// [hint/2, hint]) so a thundering herd of backed-off clients does not
// reconverge on one instant. maxBackoff, when positive, caps the hint —
// a bound on how long one call blocks regardless of what the server asks
// for. Every endpoint is a pure computation, so retrying is always safe.
// The call's context still bounds the total wait: a deadline that fires
// mid-backoff returns the last refusal immediately.
func (c *Client) WithRetry(maxAttempts int, maxBackoff time.Duration) *Client {
	c.maxAttempts = maxAttempts
	c.maxBackoff = maxBackoff
	return c
}

// WithTimeout returns a copy of the client with the given ?timeout= hint.
// The copy shares the connections, so per-request timeouts (the cluster
// router forwards each request's remaining deadline) are cheap and safe for
// concurrent use.
func (c *Client) WithTimeout(d time.Duration) *Client {
	clone := *c
	clone.Timeout = d
	return &clone
}

// Simulate runs one spec on the server and returns the effective
// (fully-defaulted) spec and its result.
func (c *Client) Simulate(ctx context.Context, spec exper.Spec) (*SimulateResponse, error) {
	var resp SimulateResponse
	if err := c.post(ctx, "/v1/simulate", spec, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Sweep runs a spec matrix as one batch; results come back in request
// order. Identical specs — within the batch, across concurrent callers of
// the same server, and across server restarts via the persistent result
// cache — simulate at most once.
func (c *Client) Sweep(ctx context.Context, specs []exper.Spec) (*SweepResponse, error) {
	var resp SweepResponse
	if err := c.post(ctx, "/v1/sweep", SweepRequest{Specs: specs}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Estimate asks for one spec's Figure 10 metrics (commit IPC, cycles, the
// integer register file's cycle time and BIPS). The server simulates the
// spec exactly as Simulate does, so the numbers are exact.
func (c *Client) Estimate(ctx context.Context, spec exper.Spec) (*EstimateResponse, error) {
	var resp EstimateResponse
	if err := c.post(ctx, "/v1/estimate", spec, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SweepResults is Sweep reduced to the result slice, for callers that only
// want the numbers.
func (c *Client) SweepResults(ctx context.Context, specs []exper.Spec) ([]*core.Result, error) {
	resp, err := c.Sweep(ctx, specs)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Result, len(resp.Results))
	for i := range resp.Results {
		out[i] = resp.Results[i].Result
	}
	return out, nil
}

// Workloads lists the server's benchmark registry in Table 1 order.
func (c *Client) Workloads(ctx context.Context) ([]WorkloadInfo, error) {
	var resp WorkloadsResponse
	if err := c.get(ctx, "/v1/workloads", &resp); err != nil {
		return nil, err
	}
	return resp.Workloads, nil
}

// Timing evaluates the register-file cycle-time model. Zero-valued
// arguments mean the server defaults (width 4, integer file, the paper's
// Figure 10 register axis). For explicit ports use TimingPorts instead.
func (c *Client) Timing(ctx context.Context, width int, fp bool, regs []int) (*TimingResponse, error) {
	q := url.Values{}
	if width != 0 {
		q.Set("width", strconv.Itoa(width))
	}
	if fp {
		q.Set("fp", "true")
	}
	return c.timing(ctx, q, regs)
}

// TimingPorts evaluates the cycle-time model for an explicit port
// configuration.
func (c *Client) TimingPorts(ctx context.Context, read, write int, regs []int) (*TimingResponse, error) {
	q := url.Values{}
	q.Set("read", strconv.Itoa(read))
	q.Set("write", strconv.Itoa(write))
	return c.timing(ctx, q, regs)
}

func (c *Client) timing(ctx context.Context, q url.Values, regs []int) (*TimingResponse, error) {
	if len(regs) > 0 {
		parts := make([]string, len(regs))
		for i, n := range regs {
			parts[i] = strconv.Itoa(n)
		}
		q.Set("regs", strings.Join(parts, ","))
	}
	target := "/v1/timing"
	if len(q) > 0 {
		target += "?" + q.Encode()
	}
	var resp TimingResponse
	if err := c.get(ctx, target, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the server's live counters.
func (c *Client) Metrics(ctx context.Context) (*MetricsResponse, error) {
	var resp MetricsResponse
	if err := c.get(ctx, "/metrics", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health probes /healthz; nil means the server is up and not draining.
func (c *Client) Health(ctx context.Context) error {
	var resp HealthResponse
	return c.get(ctx, "/healthz", &resp)
}

// Load fetches the worker-side load snapshot (admission occupancy, queue
// depth, drain state) the cluster router bases routing and spillover
// decisions on.
func (c *Client) Load(ctx context.Context) (*LoadResponse, error) {
	var resp LoadResponse
	if err := c.get(ctx, "/v1/load", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Reply is a 2xx answer as the server sent it.
type Reply struct {
	Status      int
	ContentType string
	Body        []byte
}

// Post sends body, one encoded JSON value, to path with the client's
// ?timeout= hint, and returns the 2xx reply unparsed. A refusal comes back
// as *APIError, as from the typed methods. The cluster router relays worker
// replies through Post and Get.
func (c *Client) Post(ctx context.Context, path string, body []byte) (*Reply, error) {
	target := path
	if c.Timeout > 0 {
		target += "?timeout=" + url.QueryEscape(c.Timeout.String())
	}
	return c.do(ctx, http.MethodPost, target, body)
}

// Get fetches target, a path with an optional query, and returns the 2xx
// reply unparsed.
func (c *Client) Get(ctx context.Context, target string) (*Reply, error) {
	return c.do(ctx, http.MethodGet, target, nil)
}

// post encodes in, posts it to path and decodes the reply into out.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("regsim client: encode %s: %w", path, err)
	}
	rep, err := c.Post(ctx, path, data)
	if err != nil {
		return err
	}
	return decodeReply(path, rep, out)
}

// get fetches target and decodes the reply into out.
func (c *Client) get(ctx context.Context, target string, out any) error {
	rep, err := c.Get(ctx, target)
	if err != nil {
		return err
	}
	return decodeReply(target, rep, out)
}

func decodeReply(target string, rep *Reply, out any) error {
	if err := json.Unmarshal(rep.Body, out); err != nil {
		return fmt.Errorf("regsim client: decode %s response: %w", target, err)
	}
	return nil
}

// do performs the call under the retry policy: attempt, and while the
// failure is a retryable refusal (429/503) and attempts remain, sleep the
// jittered Retry-After hint and try again.
func (c *Client) do(ctx context.Context, method, target string, body []byte) (*Reply, error) {
	for attempt := 1; ; attempt++ {
		rep, err := c.do1(ctx, method, target, body)
		var apiErr *APIError
		if err == nil || attempt >= c.maxAttempts ||
			!errors.As(err, &apiErr) || !apiErr.IsRetryable() {
			return rep, err
		}
		hint := time.Duration(apiErr.RetryAfterSeconds) * time.Second
		if hint <= 0 {
			hint = time.Second
		}
		if c.maxBackoff > 0 && hint > c.maxBackoff {
			hint = c.maxBackoff
		}
		// Full jitter over the upper half of the hint: never sooner than
		// half the server's ask, never later than all of it.
		backoff := hint/2 + time.Duration(rand.Int64N(int64(hint/2)+1))
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			// Out of time mid-backoff: the last refusal (with its hint) is
			// more actionable than a bare context error.
			return nil, err
		}
	}
}

// do1 performs one round trip and returns either the 2xx reply or the
// structured error envelope.
func (c *Client) do1(ctx context.Context, method, target string, body []byte) (*Reply, error) {
	// Propagate the caller's trace so the server joins it instead of minting
	// a fresh ID: one trace then covers both sides of the hop (and, through
	// the cluster router, the whole route → worker chain).
	var traceID string
	if id := obs.TraceIDFromContext(ctx); id != 0 {
		traceID = id.String()
	}
	resp, data, err := c.pool.roundTrip(ctx, method, c.prefix+target, body, traceID)
	if err != nil {
		return nil, fmt.Errorf("regsim client: %s %s: %w", method, target, err)
	}
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		if jsonErr := json.Unmarshal(data, &eb); jsonErr == nil && eb.Error != nil {
			eb.Error.Status = resp.StatusCode
			if eb.Error.RetryAfterSeconds == 0 {
				if ra, _ := strconv.Atoi(resp.Header.Get("Retry-After")); ra > 0 {
					eb.Error.RetryAfterSeconds = ra
				}
			}
			return nil, eb.Error
		}
		return nil, fmt.Errorf("regsim client: %s %s: HTTP %d: %s", method, target, resp.StatusCode, truncate(data, 200))
	}
	return &Reply{Status: resp.StatusCode, ContentType: resp.Header.Get("Content-Type"), Body: data}, nil
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
