package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"regsim/internal/server"
)

// workerState is the prober's verdict on one pool member.
type workerState int32

const (
	// stateUnknown: never probed yet. Routable — a freshly registered
	// worker should take traffic immediately and let the first request or
	// probe decide its fate.
	stateUnknown workerState = iota
	// stateHealthy: last probe (or request) succeeded and the worker is not
	// draining.
	stateHealthy
	// stateDegraded: reachable but draining. Deprioritized, not excluded —
	// a draining worker still answers reads and may be the only node with a
	// warm cache entry's disk copy.
	stateDegraded
	// stateDead: DeadAfter consecutive failures. Last-resort only; a later
	// probe or request success revives it (restarted workers heal without
	// operator action).
	stateDead
)

func (s workerState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDegraded:
		return "degraded"
	case stateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// worker is one pool member: its canonical base URL (which doubles as its
// rendezvous-hash identity), a typed client, and the health/load bookkeeping
// the router's routing decisions read.
type worker struct {
	// name is the canonical base URL. It is the HRW hash input, so the same
	// pool configured on two routers ranks identically.
	name   string
	client *server.Client

	requests atomic.Int64 // upstream calls attempted against this worker
	failures atomic.Int64 // ... that failed at the transport level

	mu          sync.Mutex
	state       workerState
	consecFails int
	lastErr     string
	load        *server.LoadResponse
	loadAt      time.Time
}

// getState reads the current state.
func (w *worker) getState() workerState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

// noteSuccess records a successful round trip (probe or request): the worker
// is reachable, so consecutive-failure counting restarts and a dead worker
// revives.
func (w *worker) noteSuccess() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.consecFails = 0
	w.lastErr = ""
	if w.state == stateDead || w.state == stateUnknown {
		w.state = stateHealthy
	}
}

// noteFailure records a transport-level failure; after deadAfter consecutive
// ones the worker is declared dead.
func (w *worker) noteFailure(deadAfter int, err error) {
	w.failures.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.consecFails++
	if err != nil {
		w.lastErr = err.Error()
	}
	if w.consecFails >= deadAfter {
		w.state = stateDead
	}
}

// noteLoad installs a fresh load snapshot and derives the health state from
// it (reachable + draining = degraded, reachable + serving = healthy).
func (w *worker) noteLoad(load *server.LoadResponse) {
	w.mu.Lock()
	w.load = load
	w.loadAt = time.Now()
	w.consecFails = 0
	w.lastErr = ""
	if load.Draining {
		w.state = stateDegraded
	} else {
		w.state = stateHealthy
	}
	w.mu.Unlock()
}

// occupancy returns the worker's admission occupancy fraction
// ((inFlight+waiting)/capacity) from its last load snapshot, and false when
// no snapshot exists, the snapshot is older than maxAge, or the capacity is
// unknown — stale data must not drive a spillover.
func (w *worker) occupancy(maxAge time.Duration) (float64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.load == nil || w.load.Capacity <= 0 || time.Since(w.loadAt) > maxAge {
		return 0, false
	}
	used := w.load.Admission.InFlight + w.load.Admission.Waiting
	return float64(used) / float64(w.load.Capacity), true
}

// saturated reports whether the last fresh load snapshot puts the worker at
// or above the spillover threshold.
func (w *worker) saturated(threshold float64, maxAge time.Duration) bool {
	occ, ok := w.occupancy(maxAge)
	return ok && occ >= threshold
}

// WorkerStatus is one worker's point-in-time status on the /v1/cluster wire.
type WorkerStatus struct {
	Name  string `json:"name"`
	State string `json:"state"`

	Requests            int64  `json:"requests"`
	Failures            int64  `json:"failures"`
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	LastError           string `json:"lastError,omitempty"`

	// Load-snapshot detail; present only while a fresh snapshot exists.
	Draining       bool    `json:"draining"`
	QueueDepth     int64   `json:"queueDepth"`
	Occupancy      float64 `json:"occupancy"`
	LoadAgeSeconds float64 `json:"loadAgeSeconds"`
}

func (w *worker) status() WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WorkerStatus{
		Name:                w.name,
		State:               w.state.String(),
		Requests:            w.requests.Load(),
		Failures:            w.failures.Load(),
		ConsecutiveFailures: w.consecFails,
		LastError:           w.lastErr,
	}
	if w.load != nil {
		st.Draining = w.load.Draining
		st.QueueDepth = w.load.QueueDepth
		if w.load.Capacity > 0 {
			used := w.load.Admission.InFlight + w.load.Admission.Waiting
			st.Occupancy = float64(used) / float64(w.load.Capacity)
		}
		st.LoadAgeSeconds = time.Since(w.loadAt).Seconds()
	}
	return st
}

// pool is the worker set: append-only at runtime (registration), read as a
// snapshot on every routing decision.
type pool struct {
	mu     sync.RWMutex
	list   []*worker
	byName map[string]*worker
}

func newPool() *pool {
	return &pool{byName: make(map[string]*worker)}
}

// add normalizes and inserts one worker URL. Returns (nil, nil) when the
// worker is already in the pool — registration is idempotent.
func (p *pool) add(rawURL string) (*worker, error) {
	name, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.byName[name]; ok {
		return nil, nil
	}
	w := &worker{name: name, client: server.NewClient(name)}
	p.list = append(p.list, w)
	p.byName[name] = w
	return w, nil
}

// workers returns a point-in-time snapshot of the member list (the slice is
// private; the workers themselves are shared and internally locked).
func (p *pool) workers() []*worker {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*worker, len(p.list))
	copy(out, p.list)
	return out
}

// get looks a worker up by canonical name.
func (p *pool) get(name string) *worker {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.byName[name]
}
