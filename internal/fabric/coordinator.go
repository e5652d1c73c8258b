package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"loopfrog/internal/serve"
)

// Config tunes the coordinator. The zero value takes every documented
// default, so NewCoordinator(Config{}) is a working production fabric.
type Config struct {
	// ProbeInterval is the readiness-probe period per worker (default 500ms);
	// ProbeTimeout bounds one probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Detector tunes the per-worker failure detector.
	Detector DetectorConfig

	// WrapTransport, when non-nil, wraps each member's HTTP transport — the
	// chaos fabric's injection point. base is never nil.
	WrapTransport func(workerID string, base http.RoundTripper) http.RoundTripper

	// Logf sinks coordinator logs (default log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

const (
	// maxDispatchRetries bounds transport-level retries per job;
	// retryBaseDelay seeds the exponential backoff between them, capped at
	// retryMaxDelay. Each delay carries ±50% jitter so a rack of retries does
	// not stampede the surviving workers.
	maxDispatchRetries = 3
	retryBaseDelay     = 50 * time.Millisecond
	retryMaxDelay      = 2 * time.Second
	// requestGrace pads a dispatched job's HTTP deadline beyond the job's own
	// timeout, so the worker's 504 arrives before the coordinator gives up on
	// the connection.
	requestGrace = 30 * time.Second
)

// Coordinator places admitted jobs on the worker fleet. It implements
// serve.RemoteExecutor; see the package comment for the full design.
type Coordinator struct {
	cfg  Config
	ring *Ring

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	members map[string]*member
	// queues holds each worker's FIFO of placed-but-undispatched tasks; only
	// that worker's dispatch slots pop it.
	queues map[string][]*task
	// quarantined holds (worker, fingerprint) pairs that answered with a
	// panic; placement skips them permanently.
	quarantined map[string]struct{}

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	m fabricMetrics
}

type fabricMetrics struct {
	jobs         atomic.Uint64
	dispatches   atomic.Uint64
	retries      atomic.Uint64
	reroutes     atomic.Uint64
	requeues     atomic.Uint64
	workersDead  atomic.Uint64
	pairsBlocked atomic.Uint64
	degradations atomic.Uint64
}

// member is one registered worker.
type member struct {
	id     string
	url    string
	client *http.Client
	slots  int
	det    *Detector
	// inflight maps dispatched tasks to their per-dispatch cancel funcs,
	// guarded by Coordinator.mu; on death the coordinator cancels and
	// requeues them.
	inflight map[*task]context.CancelFunc
	joined   time.Time
}

// task is one ExecuteRemote call's lifetime across placements, retries and
// requeues. It sits on at most one queue or dispatch at a time; finish
// resolves it exactly once.
type task struct {
	key     string // run-cache fingerprint: the routing key
	body    []byte // marshalled JobSpec, reused across dispatches
	timeout time.Duration
	ctx     context.Context
	done    chan struct{}

	mu        sync.Mutex
	finished  bool
	res       *serve.RemoteResult
	err       error
	attempts  int  // transport-level retries consumed
	panicHops int  // reroutes consumed after panic answers
	requeued  bool // the exactly-once death-requeue budget
}

func (t *task) isDone() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finished
}

// finish resolves the task; later calls are no-ops. A dispatch still in
// flight needs no cancel here: the client's context and Close already
// cancel it.
func (t *task) finish(res *serve.RemoteResult, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return
	}
	t.finished = true
	t.res, t.err = res, err
	close(t.done)
}

// NewCoordinator returns a coordinator with no workers. Workers register via
// AddWorker (static -workers list) or the /fabric/join handler.
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:         cfg.withDefaults(),
		ring:        NewRing(),
		members:     make(map[string]*member),
		queues:      make(map[string][]*task),
		quarantined: make(map[string]struct{}),
		stopc:       make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// AddWorker registers (or re-registers) a worker and starts its prober and
// dispatch slots. Re-joins with an unchanged URL are heartbeats; a changed
// URL re-points the member without restarting its goroutines.
func (c *Coordinator) AddWorker(info JoinInfo) error {
	if err := info.validate(); err != nil {
		return err
	}
	slots := info.Runners
	if slots <= 0 {
		slots = 4
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("fabric: coordinator closed")
	}
	if m, ok := c.members[info.ID]; ok {
		m.url = info.URL
		c.mu.Unlock()
		return nil
	}
	base := http.DefaultTransport
	if c.cfg.WrapTransport != nil {
		base = c.cfg.WrapTransport(info.ID, base)
	}
	m := &member{
		id:       info.ID,
		url:      info.URL,
		client:   &http.Client{Transport: base},
		slots:    slots,
		det:      NewDetector(c.cfg.Detector, time.Now()),
		inflight: make(map[*task]context.CancelFunc),
		joined:   time.Now(),
	}
	c.members[info.ID] = m
	c.ring.Add(m.id)
	c.mu.Unlock()
	c.cfg.Logf("fabric: worker %s joined at %s (%d slots)", m.id, m.url, slots)
	c.wg.Add(1 + slots)
	go c.probeLoop(m)
	for i := 0; i < slots; i++ {
		go c.dispatchLoop(m)
	}
	return nil
}

// Close stops probers and dispatchers and fails queued and in-flight work
// with serve.ErrRemoteUnavailable so no ExecuteRemote caller hangs. Call
// after the front-end server has drained.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.stopOnce.Do(func() { close(c.stopc) })
	var orphans []*task
	for _, q := range c.queues {
		orphans = append(orphans, q...)
	}
	c.queues = make(map[string][]*task)
	for _, m := range c.members {
		for t, cancel := range m.inflight {
			cancel()
			orphans = append(orphans, t)
		}
		m.inflight = make(map[*task]context.CancelFunc)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, t := range orphans {
		t.finish(nil, serve.ErrRemoteUnavailable)
	}
	c.wg.Wait()
}

// ExecuteRemote implements serve.RemoteExecutor: place the job on its home
// worker's queue and wait for the terminal answer. See remote.go in
// internal/serve for the error contract.
func (c *Coordinator) ExecuteRemote(ctx context.Context, fingerprint string, spec serve.JobSpec) (*serve.RemoteResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("fabric: marshal spec: %w", err)
	}
	timeout := time.Duration(spec.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = time.Minute
	}
	t := &task{
		key:     fingerprint,
		body:    body,
		timeout: timeout,
		ctx:     ctx,
		done:    make(chan struct{}),
	}
	c.m.jobs.Add(1)
	if !c.enqueue(t, "") {
		c.m.degradations.Add(1)
		return nil, serve.ErrRemoteUnavailable
	}
	select {
	case <-t.done:
		if t.err != nil && errors.Is(t.err, serve.ErrRemoteUnavailable) {
			c.m.degradations.Add(1)
		}
		return t.res, t.err
	case <-ctx.Done():
		t.finish(nil, ctx.Err())
		<-t.done
		return t.res, t.err
	}
}

// enqueue is the one placement path: the first worker in ring order from the
// key's home that is Alive, not quarantined for the key and not the excluded
// worker. When only the excluded worker qualifies the task goes back to it,
// since the failure that excluded it may have been transient. Reports false
// when no worker is eligible (the caller degrades).
func (c *Coordinator) enqueue(t *task, exclude string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	pick := ""
	for _, id := range c.ring.LookupN(t.key, len(c.members)) {
		if id != exclude && c.eligibleLocked(id, t.key) {
			pick = id
			break
		}
	}
	if pick == "" && exclude != "" && c.eligibleLocked(exclude, t.key) {
		pick = exclude
	}
	if pick == "" {
		return false
	}
	c.queues[pick] = append(c.queues[pick], t)
	c.cond.Broadcast()
	return true
}

// eligibleLocked reports whether a task of key may be placed on worker id.
// Caller holds c.mu.
func (c *Coordinator) eligibleLocked(id, key string) bool {
	m, ok := c.members[id]
	if !ok || m.det.State() != StateAlive {
		return false
	}
	_, bad := c.quarantined[pairKey(id, key)]
	return !bad
}

// dispatchLoop is one worker slot: take the head of the member's queue, run
// it, repeat.
func (c *Coordinator) dispatchLoop(m *member) {
	defer c.wg.Done()
	for {
		t, ok := c.take(m)
		if !ok {
			return
		}
		c.runItem(m, t)
	}
}

// take blocks until the member is Alive and its queue holds an unfinished
// task, or the coordinator closes. Tasks whose client gave up are dropped.
func (c *Coordinator) take(m *member) (*task, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.closed {
		for m.det.State() == StateAlive && len(c.queues[m.id]) > 0 {
			q := c.queues[m.id]
			t := q[0]
			q[0] = nil
			if len(q) == 1 {
				delete(c.queues, m.id)
			} else {
				c.queues[m.id] = q[1:]
			}
			if !t.isDone() {
				return t, true
			}
		}
		c.cond.Wait()
	}
	return nil, false
}

// runItem dispatches a task to a worker and classifies the outcome: success
// or job-level failure finishes the task; a panic answer quarantines the
// (worker, key) pair and reroutes once; transport failures back off with
// jitter and reroute up to maxDispatchRetries before the task degrades to
// local execution.
func (c *Coordinator) runItem(m *member, t *task) {
	dctx, cancel := context.WithCancel(t.ctx)
	c.mu.Lock()
	m.inflight[t] = cancel
	c.mu.Unlock()
	c.m.dispatches.Add(1)
	rr, derr := c.postJob(dctx, m, t)
	// Capture before cancel(): a dispatch context that was already dead
	// while the job's own context lives means the death path cancelled this
	// dispatch and owns the requeue.
	cancelledByDeath := dctx.Err() != nil && t.ctx.Err() == nil
	c.mu.Lock()
	delete(m.inflight, t)
	c.mu.Unlock()
	cancel()

	if derr == nil {
		t.finish(rr, nil)
		return
	}
	if t.isDone() {
		return
	}
	if err := t.ctx.Err(); err != nil {
		t.finish(nil, err)
		return
	}
	if cancelledByDeath {
		// Our dispatch alone was cancelled: the death path owns this task now
		// (it cancelled us and will requeue exactly once).
		return
	}
	var je *workerJobError
	if errors.As(derr, &je) {
		if je.panicky() {
			c.quarantinePair(m.id, t.key)
			if c.takePanicHop(t) && c.enqueue(t, m.id) {
				c.m.reroutes.Add(1)
				return
			}
		}
		t.finish(&serve.RemoteResult{
			Worker:     m.id,
			Status:     je.Status,
			HTTPStatus: je.HTTPStatus,
			Error:      je.Text,
		}, nil)
		return
	}
	// Transport-level failure: the worker never answered. Back off with
	// jitter and reroute; a member this unreachable will also be failing its
	// probes, so the ring catches up shortly.
	t.mu.Lock()
	t.attempts++
	attempt := t.attempts
	t.mu.Unlock()
	if attempt > maxDispatchRetries {
		t.finish(nil, fmt.Errorf("%w: %v", serve.ErrRemoteUnavailable, derr))
		return
	}
	c.m.retries.Add(1)
	delay := retryBaseDelay << (attempt - 1)
	if delay > retryMaxDelay {
		delay = retryMaxDelay
	}
	delay = time.Duration(float64(delay) * (0.5 + rand.Float64()))
	time.AfterFunc(delay, func() {
		if t.isDone() {
			return
		}
		c.m.reroutes.Add(1)
		if !c.enqueue(t, m.id) {
			t.finish(nil, fmt.Errorf("%w: %v", serve.ErrRemoteUnavailable, derr))
		}
	})
}

// takePanicHop consumes the task's single panic-reroute credit.
func (c *Coordinator) takePanicHop(t *task) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.panicHops >= 1 {
		return false
	}
	t.panicHops++
	return true
}

// quarantinePair blocks the (worker, key) pair for good and re-homes the
// worker's queued tasks of that key. They never ran there, so the move costs
// them no requeue budget.
func (c *Coordinator) quarantinePair(workerID, key string) {
	c.mu.Lock()
	k := pairKey(workerID, key)
	if _, dup := c.quarantined[k]; !dup {
		c.quarantined[k] = struct{}{}
		c.m.pairsBlocked.Add(1)
	}
	var moved, kept []*task
	for _, t := range c.queues[workerID] {
		if t.key == key {
			moved = append(moved, t)
		} else {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		delete(c.queues, workerID)
	} else {
		c.queues[workerID] = kept
	}
	c.mu.Unlock()
	c.cfg.Logf("fabric: quarantined pair worker=%s key=%s after panic answer", workerID, key)
	for _, t := range moved {
		c.rehome(t, workerID)
	}
}

// workerJobError is a worker's terminal non-2xx job answer: the job ran (or
// was rejected) and the worker said so. Distinct from transport errors,
// which mean the worker never answered.
type workerJobError struct {
	HTTPStatus int
	Status     string
	Text       string
}

func (e *workerJobError) Error() string {
	return fmt.Sprintf("worker answered %d (%s): %s", e.HTTPStatus, e.Status, e.Text)
}

// panicky reports whether the answer smells like a worker-side panic or
// quarantine — the signals that earn a (worker, key) pair quarantine.
func (e *workerJobError) panicky() bool {
	return e.HTTPStatus == http.StatusInternalServerError &&
		(bytes.Contains([]byte(e.Text), []byte("panic")) ||
			bytes.Contains([]byte(e.Text), []byte("quarantined")))
}

// transientHTTP reports worker answers that should be treated like transport
// failures (retry elsewhere): the worker exists but cannot take the job now.
func transientHTTP(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// postJob forwards the task's spec to the worker's synchronous job API and
// maps the worker's terminal view. nil error means the task is terminal
// (success or relayed failure is decided by the caller from RemoteResult).
func (c *Coordinator) postJob(ctx context.Context, m *member, t *task) (*serve.RemoteResult, error) {
	rctx, cancel := context.WithTimeout(ctx, t.timeout+requestGrace)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, m.url+"/v1/jobs", bytes.NewReader(t.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := m.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if transientHTTP(resp.StatusCode) {
		return nil, fmt.Errorf("worker %s not accepting work: HTTP %d", m.id, resp.StatusCode)
	}
	var view struct {
		Status string           `json:"status"`
		Error  string           `json:"error"`
		Result *serve.JobResult `json:"result"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(payload, &view); err != nil {
			return nil, fmt.Errorf("worker %s: bad job view: %w", m.id, err)
		}
		return &serve.RemoteResult{
			Worker:     m.id,
			Status:     view.Status,
			HTTPStatus: http.StatusOK,
			Error:      view.Error,
			Result:     view.Result,
		}, nil
	}
	// Terminal worker-side failure (504 deadline, 500 panic/quarantine, 422
	// reject, ...): parse what we can and relay through workerJobError.
	text := ""
	status := serve.StatusFailed
	if json.Unmarshal(payload, &view) == nil {
		if view.Error != "" {
			text = view.Error
		}
		if view.Status != "" {
			status = view.Status
		}
	}
	if text == "" {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &apiErr) == nil && apiErr.Error != "" {
			text = apiErr.Error
		}
	}
	if text == "" {
		text = fmt.Sprintf("worker %s answered HTTP %d", m.id, resp.StatusCode)
	}
	return nil, &workerJobError{HTTPStatus: resp.StatusCode, Status: status, Text: text}
}

// probeLoop drives one worker's failure detector off its /readyz endpoint.
func (c *Coordinator) probeLoop(m *member) {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case <-ticker.C:
		}
		c.probe(m)
	}
}

func (c *Coordinator) probe(m *member) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/readyz", nil)
	if err != nil {
		cancel()
		return
	}
	resp, err := m.client.Do(req)
	cancel()
	now := time.Now()
	var st WorkerState
	var changed bool
	switch {
	case err != nil:
		// A probe that timed out is soft evidence (accrues phi); an immediate
		// transport error (refused, reset, chaos kill) is hard evidence.
		hard := !errors.Is(err, context.DeadlineExceeded)
		st, changed = m.det.ObserveFailure(now, hard)
	case resp.StatusCode == http.StatusOK:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		st, changed = m.det.ObserveSuccess(now)
	case resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		st, changed = m.det.ObserveNotReady(now)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		st, changed = m.det.ObserveFailure(now, false)
	}
	if changed {
		c.onStateChange(m, st)
	}
}

// onStateChange applies a detector transition to routing state: Alive
// restores the ring arc; leaving Alive removes it and re-homes the queue;
// Dead additionally cancels in-flight dispatches and spends each task's
// exactly-once requeue budget. Probation lets in-flight work finish.
func (c *Coordinator) onStateChange(m *member, st WorkerState) {
	c.cfg.Logf("fabric: worker %s -> %s (phi=%.1f)", m.id, st, m.det.Phi(time.Now()))
	c.mu.Lock()
	if st == StateAlive {
		c.ring.Add(m.id)
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	c.ring.Remove(m.id)
	queued := c.queues[m.id]
	delete(c.queues, m.id)
	var running []*task
	if st == StateDead {
		c.m.workersDead.Add(1)
		for t, cancel := range m.inflight {
			cancel()
			running = append(running, t)
		}
		m.inflight = make(map[*task]context.CancelFunc)
	}
	c.mu.Unlock()
	for _, t := range queued {
		c.rehome(t, m.id)
	}
	for _, t := range running {
		c.requeueOnce(t, m.id)
	}
}

// rehome re-places a queued task that never started on the worker it leaves;
// it costs no requeue budget.
func (c *Coordinator) rehome(t *task, exclude string) {
	if t.isDone() {
		return
	}
	c.m.reroutes.Add(1)
	if !c.enqueue(t, exclude) {
		t.finish(nil, serve.ErrRemoteUnavailable)
	}
}

// requeueOnce spends a task's exactly-once death-requeue budget. The second
// worker death under the same task surfaces serve.ErrWorkerLost: by then the
// job has consumed two workers and the client deserves a typed answer, not
// an unbounded retry loop.
func (c *Coordinator) requeueOnce(t *task, exclude string) {
	if t.isDone() {
		return
	}
	t.mu.Lock()
	already := t.requeued
	t.requeued = true
	t.mu.Unlock()
	if already {
		t.finish(nil, serve.ErrWorkerLost)
		return
	}
	c.m.requeues.Add(1)
	if !c.enqueue(t, exclude) {
		t.finish(nil, serve.ErrRemoteUnavailable)
	}
}
