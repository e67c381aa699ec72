package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
type Client struct {
	baseURL string
	hc      *http.Client
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
// NewClient("http://localhost:8265"). The underlying http.Client has no
// overall timeout: simulation requests are long-poll shaped, so deadlines
// belong to the per-call context (and the Timeout hint), not the transport.
func NewClient(baseURL string) *Client {
	return &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{},
	}
}

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
// The copy shares the transport, so per-request timeouts (the cluster
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
	if err := c.do(ctx, http.MethodPost, "/v1/simulate", c.simQuery(), spec, &resp); err != nil {
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
	if err := c.do(ctx, http.MethodPost, "/v1/sweep", c.simQuery(), SweepRequest{Specs: specs}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Estimate asks for one spec's Figure 10 metrics (commit IPC, cycles, the
// integer register file's cycle time and BIPS). The server simulates the
// spec exactly as Simulate does, so the numbers are exact.
func (c *Client) Estimate(ctx context.Context, spec exper.Spec) (*EstimateResponse, error) {
	var resp EstimateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/estimate", c.simQuery(), spec, &resp); err != nil {
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
	if err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, nil, &resp); err != nil {
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
	var resp TimingResponse
	if err := c.do(ctx, http.MethodGet, "/v1/timing", q, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the server's live counters.
func (c *Client) Metrics(ctx context.Context) (*MetricsResponse, error) {
	var resp MetricsResponse
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health probes /healthz; nil means the server is up and not draining.
func (c *Client) Health(ctx context.Context) error {
	var resp HealthResponse
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, &resp)
}

// Load fetches the worker-side load snapshot (admission occupancy, queue
// depth, drain state) the cluster router bases routing and spillover
// decisions on.
func (c *Client) Load(ctx context.Context) (*LoadResponse, error) {
	var resp LoadResponse
	if err := c.do(ctx, http.MethodGet, "/v1/load", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// simQuery carries the optional per-request deadline hint.
func (c *Client) simQuery() url.Values {
	if c.Timeout <= 0 {
		return nil
	}
	q := url.Values{}
	q.Set("timeout", c.Timeout.String())
	return q
}

// do performs the call under the retry policy: attempt, and while the
// failure is a retryable refusal (429/503) and attempts remain, sleep the
// jittered Retry-After hint and try again.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, in, out any) error {
	for attempt := 1; ; attempt++ {
		err := c.do1(ctx, method, path, query, in, out)
		var apiErr *APIError
		if err == nil || attempt >= c.maxAttempts ||
			!errors.As(err, &apiErr) || !apiErr.IsRetryable() {
			return err
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
			return err
		}
	}
}

// do1 performs one round trip: encode the body, send, and decode either the
// typed response or the structured error envelope.
func (c *Client) do1(ctx context.Context, method, path string, query url.Values, in, out any) error {
	u := c.baseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("regsim client: encode %s: %w", path, err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return fmt.Errorf("regsim client: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's trace so the server joins it instead of minting
	// a fresh ID: one trace then covers both sides of the hop (and, through
	// the cluster router, the whole route → worker chain).
	if id := obs.TraceIDFromContext(ctx); id != 0 {
		req.Header.Set("X-Trace-Id", id.String())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("regsim client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("regsim client: read %s response: %w", path, err)
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
			return eb.Error
		}
		return fmt.Errorf("regsim client: %s %s: HTTP %d: %s", method, path, resp.StatusCode, truncate(data, 200))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("regsim client: decode %s response: %w", path, err)
	}
	return nil
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
