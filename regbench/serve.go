package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"regsim/internal/cache"
	"regsim/internal/cluster"
	"regsim/internal/exper"
	"regsim/internal/rename"
	"regsim/internal/server"
	"regsim/internal/workload"
)

// The serving workloads' shape (see the package doc).
const (
	servingBudget = 30_000
	hotSetSize    = 64
	checkedCold   = 16 // cold specs with an in-process reference Result
	sweepHot      = 6  // memoized specs per /v1/sweep
	sweepNew      = 2  // never-seen specs per /v1/sweep
	clients       = 2  // closed-loop client goroutines, one connection each
	servingSetups = 5
	windowLen     = 5 * time.Second // latency metrics are medians of per-window p50s
	// peak_rss_mb is read once this many requests per measured second have
	// completed: 3,000 in a 20-second run, which even the slowest host state
	// seen (route-mixed at about 300 requests/s) reaches in half the run.
	rssRequestsPerSecond = 150
	handlerCalls         = 500 // in-process handler probe calls
	hopPairs             = 200 // routed/direct warm pairs in the hop probe
)

// Request classes of the serving mix.
const (
	warmOp = iota
	coldOp
	sweepOp
	numOps
)

var opNames = [numOps]string{"warm", "cold", "sweep"}

// specSpace enumerates the serving stream's spec universe: every benchmark,
// both widths, Fig. 3's queue axis, register files from 32 to 256 in steps
// of 8, both exception models and all three caches — 18,792 specs, so a run
// never repeats a cold one.
func specSpace() []exper.Spec {
	var specs []exper.Spec
	for _, bench := range workload.Names() {
		for _, width := range exper.Widths {
			for _, queue := range exper.QueueSizes {
				for regs := 32; regs <= 256; regs += 8 {
					for _, model := range []rename.Model{rename.Precise, rename.Imprecise} {
						for _, kind := range []cache.Kind{cache.LockupFree, cache.Lockup, cache.Perfect} {
							specs = append(specs, exper.Spec{Bench: bench, Width: width, Queue: queue,
								Regs: regs, Model: model, Cache: kind, Budget: servingBudget})
						}
					}
				}
			}
		}
	}
	return specs
}

// stream is the seeded request universe: a hot set and never-repeated cold
// specs, both drawn from a seeded shuffle of specSpace.
type stream struct {
	hot, cold []exper.Spec
}

func newStream(seed int64) *stream {
	specs := specSpace()
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return &stream{hot: specs[:hotSetSize], cold: specs[hotSetSize:]}
}

// op is one request of the mix.
type op struct {
	class int
	specs []exper.Spec
}

// client generates one closed-loop client's deterministic request sequence:
// its own seeded mix, and every clients-th cold spec so the clients never
// share one.
type client struct {
	st   *stream
	rng  *rand.Rand
	cold int
}

func (st *stream) client(seed int64, id int) *client {
	return &client{st: st, rng: rand.New(rand.NewPCG(uint64(seed), uint64(id+1))), cold: id}
}

func (c *client) nextCold() (exper.Spec, error) {
	if c.cold >= len(c.st.cold) {
		return exper.Spec{}, errors.New("cold spec space exhausted")
	}
	s := c.st.cold[c.cold]
	c.cold += clients
	return s, nil
}

func (c *client) hot() exper.Spec { return c.st.hot[c.rng.IntN(len(c.st.hot))] }

func (c *client) next() (op, error) {
	switch u := c.rng.Float64(); {
	case u < 0.85:
		return op{warmOp, []exper.Spec{c.hot()}}, nil
	case u < 0.95:
		s, err := c.nextCold()
		return op{coldOp, []exper.Spec{s}}, err
	default:
		o := op{class: sweepOp}
		for range sweepHot {
			o.specs = append(o.specs, c.hot())
		}
		for range sweepNew {
			s, err := c.nextCold()
			if err != nil {
				return o, err
			}
			o.specs = append(o.specs, s)
		}
		return o, nil
	}
}

// refs holds what the serving replies are checked against, built from
// Results computed in process: each Result's compact JSON (for /v1/sweep
// entries), and the whole /v1/simulate reply up to its timing field,
// rendered by the servers' own writer — so checking a warm reply is one
// byte comparison, and the harness takes little CPU from the daemons it
// measures.
type refs struct {
	result, reply map[exper.Spec][]byte
}

// references computes, untimed, the Results every hot-set reply and the
// first checkedCold cold replies must match byte-for-byte. The returned
// suite has them all memoized (the handler and memo probes reuse it).
func references(ctx context.Context, st *stream) (*refs, *exper.Suite, error) {
	specs := append(append([]exper.Spec(nil), st.hot...), st.cold[:checkedCold]...)
	s := exper.NewSuite(servingBudget)
	s.Jobs = replicaJobs
	results, err := s.RunAll(ctx, specs)
	if err != nil {
		return nil, nil, err
	}
	rf := &refs{result: map[exper.Spec][]byte{}, reply: map[exper.Spec][]byte{}}
	for i, res := range results {
		if rf.result[specs[i]], err = json.Marshal(res); err != nil {
			return nil, nil, err
		}
		rec := httptest.NewRecorder()
		server.WriteJSON(rec, http.StatusOK, server.SimulateResponse{Spec: specs[i], Result: res})
		body := rec.Body.Bytes()
		cut := bytes.LastIndex(body, []byte(`"elapsedMS"`))
		if cut < 0 {
			return nil, nil, errors.New("reference reply has no elapsedMS field")
		}
		rf.reply[specs[i]] = body[:cut]
	}
	return rf, s, nil
}

// simReply is the part of a /v1/simulate reply (and of each /v1/sweep
// entry) the harness checks.
type simReply struct {
	Spec   exper.Spec      `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// check verifies one decoded reply: it must echo the requested spec, and
// its Result must match the reference byte-for-byte where one exists, or
// else commit the full budget.
func (rf *refs) check(want exper.Spec, got simReply) error {
	if got.Spec != want {
		return fmt.Errorf("reply for %+v echoes spec %+v", want, got.Spec)
	}
	if ref, ok := rf.result[want]; ok {
		var compact bytes.Buffer
		if err := json.Compact(&compact, got.Result); err != nil {
			return err
		}
		if !bytes.Equal(compact.Bytes(), ref) {
			return fmt.Errorf("result for %+v differs from its reference", want)
		}
		return nil
	}
	var r struct{ Committed int64 }
	if err := json.Unmarshal(got.Result, &r); err != nil {
		return err
	}
	// The machine stops in the cycle that reaches the budget, which may
	// retire up to its commit bandwidth (2 × width) at once.
	if r.Committed < want.Budget || r.Committed >= want.Budget+2*int64(want.Width) {
		return fmt.Errorf("result for %+v committed %d of %d", want, r.Committed, want.Budget)
	}
	return nil
}

// request encodes one op as its HTTP path and body.
func (o op) request() (string, []byte, error) {
	if o.class == sweepOp {
		body, err := json.Marshal(server.SweepRequest{Specs: o.specs})
		return "/v1/sweep", body, err
	}
	body, err := json.Marshal(o.specs[0])
	return "/v1/simulate", body, err
}

// verify checks a 200 reply body for op.
func (o op) verify(body []byte, rf *refs) error {
	if o.class != sweepOp {
		if want, ok := rf.reply[o.specs[0]]; ok {
			if !bytes.HasPrefix(body, want) {
				return fmt.Errorf("reply for %+v differs from its reference", o.specs[0])
			}
			return nil
		}
		var r simReply
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return rf.check(o.specs[0], r)
	}
	var r struct {
		Count   int        `json:"count"`
		Results []simReply `json:"results"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Count != len(o.specs) || len(r.Results) != len(o.specs) {
		return fmt.Errorf("sweep of %d specs answered %d", len(o.specs), len(r.Results))
	}
	for i, spec := range o.specs {
		if err := rf.check(spec, r.Results[i]); err != nil {
			return err
		}
	}
	return nil
}

// post sends one JSON body and reads the reply into the caller's buffer
// (reused across a client's requests, so reading a reply allocates
// nothing in steady state).
func post(ctx context.Context, hc *http.Client, url string, body []byte, reply *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	reply.Reset()
	_, err = reply.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// getJSON fetches url and decodes a 200 JSON reply into v.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	data, err := get(ctx, hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return data, err
}

// daemon is one started regsimd or regsim-router process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited and been reaped
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches one daemon binary on a free loopback port, logging to the
// run's scratch dir.
func (b *bench) start(name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(b.work, name+"-"+strconv.Itoa(port)+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(b.bin, name), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = dieWithHarness()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain overruns.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// hwmMB reads the daemon's peak resident set size (VmHWM) in MiB.
func (d *daemon) hwmMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok { // "VmHWM:   20480 kB"
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// waitHealthy polls url/healthz until it answers 200.
func waitHealthy(ctx context.Context, hc *http.Client, d *daemon) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := get(ctx, hc, d.url+"/healthz"); err == nil {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before becoming healthy", d.cmd.Path)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 30s", d.url)
		}
	}
}

// pool is one serving set-up: one or two regsimd workers, and on routed
// runs a regsim-router in front.
type pool struct {
	workers []*daemon
	router  *daemon
	dirs    []string // the workers' fresh cache dirs
}

// front is the base URL the clients talk to.
func (p *pool) front() string {
	if p.router != nil {
		return p.router.url
	}
	return p.workers[0].url
}

func (p *pool) daemons() []*daemon {
	if p.router != nil {
		return append([]*daemon{p.router}, p.workers...)
	}
	return p.workers
}

func (p *pool) stop() {
	for _, d := range p.daemons() {
		d.stop()
	}
}

// hwmMB is the sum of the daemons' peak resident set sizes, in MiB.
func (p *pool) hwmMB() (float64, error) {
	var total float64
	for _, d := range p.daemons() {
		mb, err := d.hwmMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// startPool starts the daemons on fresh cache dirs, waits for every
// /healthz, and prefills the hot set with one /v1/sweep. The caller stops
// the pool, also on error.
func (b *bench) startPool(hc *http.Client, routed bool, hot []exper.Spec) (*pool, error) {
	p := &pool{}
	n := 1
	if routed {
		n = 2
	}
	var urls []string
	for range n {
		dir, err := b.freshDir("cache-")
		if err != nil {
			return p, err
		}
		d, err := b.start("regsimd", "-n", strconv.Itoa(servingBudget), "-jobs", "2", "-cache-dir", dir, "-quiet")
		if err != nil {
			return p, err
		}
		p.workers = append(p.workers, d)
		p.dirs = append(p.dirs, dir)
		urls = append(urls, d.url)
	}
	if routed {
		d, err := b.start("regsim-router", "-n", strconv.Itoa(servingBudget), "-workers", strings.Join(urls, ","), "-quiet")
		if err != nil {
			return p, err
		}
		p.router = d
	}
	for _, d := range p.daemons() {
		if err := waitHealthy(b.ctx, hc, d); err != nil {
			return p, err
		}
	}
	body, err := json.Marshal(server.SweepRequest{Specs: hot})
	if err != nil {
		return p, err
	}
	var reply bytes.Buffer
	status, err := post(b.ctx, hc, p.front()+"/v1/sweep", body, &reply)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("hot-set prefill: status %d: %s", status, reply.Bytes())
	}
	return p, err
}

// sample is one completed, verified request.
type sample struct {
	class, window int
	ms            float64
}

// drive runs the closed loop: clients goroutines, each sending its next
// request only after the previous reply, for the measurement window. The
// window is cut into windowLen windows; between them the clients pause while
// the harness samples the host gauge. Once rssAfter requests have completed,
// it reads the daemons' peak RSS, so that metric measures a fixed amount of
// work however fast the host runs. It returns the samples and the time the
// clients ran.
func (b *bench) drive(hc *http.Client, p *pool, st *stream, rf *refs, r *report) ([]sample, time.Duration, error) {
	windows := max(1, int(b.window/windowLen))
	wlen := b.window / time.Duration(windows)
	rssAfter := int64(rssRequestsPerSecond * b.window.Seconds())
	var completed atomic.Int64
	var rssErr error
	readRSS := func() { r.peakRSS, rssErr = p.hwmMB() }

	cs := make([]*client, clients)
	per := make([][]sample, clients)
	tries, fails := make([]int, clients), make([]int, clients)
	errs := make([]error, clients)
	for id := range clients {
		cs[id] = st.client(b.seed, id)
	}
	var elapsed time.Duration
	for w := range windows {
		b.gauge.sample()
		start := time.Now()
		deadline := start.Add(wlen)
		var wg sync.WaitGroup
		for id := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var reply bytes.Buffer
				for time.Now().Before(deadline) && b.ctx.Err() == nil {
					o, err := cs[id].next()
					if err != nil {
						errs[id] = err
						return
					}
					path, body, err := o.request()
					if err != nil {
						errs[id] = err
						return
					}
					t0 := time.Now()
					status, err := post(b.ctx, hc, p.front()+path, body, &reply)
					lat := time.Since(t0)
					tries[id]++
					if completed.Add(1) == rssAfter {
						readRSS()
					}
					if err == nil && status != http.StatusOK {
						err = fmt.Errorf("%s: status %d: %.200s", path, status, reply.Bytes())
					}
					if err == nil {
						err = o.verify(reply.Bytes(), rf)
					}
					if err != nil {
						if fails[id] < 3 {
							fmt.Fprintf(b.log, "client %d: %v\n", id, err)
						}
						fails[id]++
						continue
					}
					per[id] = append(per[id], sample{o.class, w, ms(lat)})
				}
			}()
		}
		wg.Wait()
		elapsed += time.Since(start)
	}
	b.gauge.sample()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	if err := b.ctx.Err(); err != nil {
		return nil, 0, err
	}
	if completed.Load() < rssAfter {
		readRSS() // a run too short or too slow to reach rssAfter
	}
	if rssErr != nil {
		return nil, 0, rssErr
	}
	var all []sample
	for id := range clients {
		all = append(all, per[id]...)
		r.attempted += tries[id]
		r.failed += fails[id]
	}
	return all, elapsed, nil
}

// windowedP50 is a class's latency metric: the median over windows of each
// window's median latency.
func windowedP50(samples []sample, class int) (float64, error) {
	byWindow := map[int][]float64{}
	for _, s := range samples {
		if s.class == class {
			byWindow[s.window] = append(byWindow[s.window], s.ms)
		}
	}
	if len(byWindow) == 0 {
		return 0, fmt.Errorf("no %s request completed", opNames[class])
	}
	var p50s []float64
	for _, lat := range byWindow {
		p50s = append(p50s, median(lat))
	}
	return median(p50s), nil
}

// runServing measures serve-mixed (routed false) or route-mixed.
func runServing(b *bench, routed bool) (*report, error) {
	r := newReport()
	st := newStream(b.seed)
	rf, refSuite, err := references(b.ctx, st)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout:   time.Minute,
	}
	defer hc.CloseIdleConnections()

	var setups []float64
	var p *pool
	for i := range servingSetups {
		b.gauge.sample()
		sp, _ := b.span(nil, "setup")
		t := time.Now()
		p, err = b.startPool(hc, routed, st.hot)
		sp.End()
		if err != nil {
			p.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < servingSetups-1 {
			p.stop()
			hc.CloseIdleConnections()
		}
	}
	defer p.stop()
	r.metrics["setup_s"] = median(setups)
	b.gauge.startMeasuring()

	sp, _ := b.span(nil, "closed loop")
	samples, elapsed, err := b.drive(hc, p, st, rf, r)
	sp.End()
	if err != nil {
		return nil, err
	}
	for class, metric := range map[int]string{warmOp: "warm_ms", coldOp: "cold_ms", sweepOp: "extend_ms"} {
		if r.metrics[metric], err = windowedP50(samples, class); err != nil {
			return nil, err
		}
	}
	r.metrics["ops_per_s"] = float64(len(samples)) / elapsed.Seconds()
	r.metrics["peak_rss_mb"] = r.peakRSS
	if !b.traced {
		return r, nil
	}
	return r, b.servingLayers(r, hc, p, st, refSuite)
}

// servingLayers fills the per-layer metrics of a traced serving run: the
// daemons' own counters, the hop probe, and in-process probes of the
// handlers and every lower layer on the hot set.
func (b *bench) servingLayers(r *report, hc *http.Client, p *pool, st *stream, refSuite *exper.Suite) error {
	l := r.layers
	zeroReplicaLayers(l)
	zeroServingLayers(l)

	sp, _ := b.span(nil, "scrape")
	var waitSum, waitCount float64
	for i, w := range p.workers {
		var m server.MetricsResponse
		if err := getJSON(b.ctx, hc, w.url+"/metrics", &m); err != nil {
			return err
		}
		l["sweep.runs"] += float64(m.Sweep.Runs)
		l["sweep.memo_hits"] += float64(m.Sweep.MemoHits)
		l["sweep.deduped"] += float64(m.Sweep.Deduped)
		l["rescache.hits"] += float64(m.Sweep.CacheHits)
		l["rescache.misses"] += float64(m.Sweep.CacheMisses)
		l["rescache.errors"] += float64(m.Sweep.CacheErrors)
		l["server.refused"] += float64(m.Admission.Rejected)
		l["rescache.disk_mb"] += dirMB(p.dirs[i])
		prom, err := get(b.ctx, hc, w.url+"/metrics?format=prometheus")
		if err != nil {
			return err
		}
		waitSum += promValue(prom, "regsim_admission_wait_ms_sum")
		waitCount += promValue(prom, "regsim_admission_wait_ms_count")
	}
	if waitCount > 0 {
		l["server.admission_wait_ms"] = waitSum / waitCount
	}
	directWarmMS := r.metrics["warm_ms"]
	if p.router != nil {
		var c cluster.ClusterResponse
		if err := getJSON(b.ctx, hc, p.router.url+"/v1/cluster", &c); err != nil {
			return err
		}
		l["cluster.reroutes"] = float64(c.Reroutes)
		l["cluster.spillovers"] = float64(c.Spillovers)
		var total, busiest int64
		for _, w := range c.Workers {
			total += w.Requests
			busiest = max(busiest, w.Requests)
		}
		if total > 0 {
			l["cluster.max_worker_share"] = float64(busiest) / float64(total)
		}
		routed, direct, err := b.hopProbe(hc, p, st)
		if err != nil {
			return err
		}
		l["cluster.hop_ms"] = routed - direct
		directWarmMS = direct
	}
	sp.End()

	sp, _ = b.span(nil, "probe.server")
	handlerUS, err := b.probeHandlers(refSuite, st, p.router != nil, l)
	sp.End()
	if err != nil {
		return err
	}
	l["server.net_us"] = directWarmMS*1e3 - handlerUS

	pr, err := b.probeLayers(st.hot, servingBudget, refSuite)
	if err != nil {
		return err
	}
	pr.fill(l)
	return nil
}

// zeroServingLayers sets the server and cluster metrics a workload without
// that layer reports.
func zeroServingLayers(l map[string]float64) {
	for _, k := range []string{"server.handler_us", "server.net_us", "server.admission_wait_ms", "server.refused",
		"cluster.hop_ms", "cluster.handler_us", "cluster.reroutes", "cluster.spillovers", "cluster.max_worker_share"} {
		l[k] = 0
	}
}

// promValue reads one unlabelled sample from a Prometheus text exposition.
func promValue(text []byte, name string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// hopProbe alternates warm requests for hot specs through the router and
// directly to the first worker (after priming the worker's memo with each),
// from a single client, and returns both median latencies in ms.
func (b *bench) hopProbe(hc *http.Client, p *pool, st *stream) (routed, direct float64, err error) {
	worker := p.workers[0].url
	var reply bytes.Buffer
	for _, spec := range st.hot {
		body, _ := json.Marshal(spec)
		if status, err := post(b.ctx, hc, worker+"/v1/simulate", body, &reply); err != nil || status != http.StatusOK {
			return 0, 0, fmt.Errorf("hop probe priming: status %d: %v", status, err)
		}
	}
	var lat [2][]float64
	for i := range 2 * hopPairs {
		body, _ := json.Marshal(st.hot[i/2%len(st.hot)])
		url := []string{p.router.url, worker}[i%2]
		t := time.Now()
		status, err := post(b.ctx, hc, url+"/v1/simulate", body, &reply)
		if err != nil || status != http.StatusOK {
			return 0, 0, fmt.Errorf("hop probe: status %d: %v", status, err)
		}
		lat[i%2] = append(lat[i%2], ms(time.Since(t)))
	}
	return median(lat[0]), median(lat[1]), nil
}

// probeHandlers times warm /v1/simulate calls through Server.Handler() with
// a recorder — and on routed runs through Router.Handler() over two
// in-process workers — on a suite that has the hot set memoized. It returns
// server.handler_us and fills the handler metrics.
func (b *bench) probeHandlers(memo *exper.Suite, st *stream, routed bool, l map[string]float64) (float64, error) {
	srv, err := server.New(server.Config{Suite: memo})
	if err != nil {
		return 0, err
	}
	handlerUS, err := timeHandler(srv.Handler(), st)
	if err != nil {
		return 0, err
	}
	l["server.handler_us"] = handlerUS
	if !routed {
		return handlerUS, nil
	}
	var urls []string
	for range 2 {
		w, err := server.New(server.Config{Suite: memo})
		if err != nil {
			return 0, err
		}
		ts := httptest.NewServer(w.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	rt, err := cluster.New(cluster.Config{Workers: urls, DefaultBudget: servingBudget, ProbeInterval: -1})
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	routerUS, err := timeHandler(rt.Handler(), st)
	if err != nil {
		return 0, err
	}
	l["cluster.handler_us"] = routerUS - handlerUS
	return handlerUS, nil
}

// timeHandler returns the median µs of handlerCalls warm /v1/simulate calls
// for hot specs through h, recorded in memory.
func timeHandler(h http.Handler, st *stream) (float64, error) {
	var us []float64
	for i := range handlerCalls {
		body, err := json.Marshal(st.hot[i%len(st.hot)])
		if err != nil {
			return 0, err
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
		t := time.Now()
		h.ServeHTTP(rec, req)
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process /v1/simulate: status %d: %s", rec.Code, rec.Body)
		}
	}
	return median(us), nil
}
