package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"loopfrog/internal/serve"
)

// fakeWorker is a scriptable worker endpoint: readyz behaviour and the jobs
// handler are swappable at runtime, so tests drive the failure detector and
// dispatch classification without real simulations.
type fakeWorker struct {
	id string
	ts *httptest.Server
	// readyMode: 0 = 200 ready, 1 = abort the connection (hard probe
	// failure), 2 = 503 draining.
	readyMode atomic.Int32
	jobs      atomic.Pointer[http.HandlerFunc]
	// gotJobs counts /v1/jobs requests, so tests can tell which worker a
	// dispatch actually landed on after retries, re-homes and requeues.
	gotJobs atomic.Int32
}

func newFakeWorker(t *testing.T, id string, jobs http.HandlerFunc) *fakeWorker {
	t.Helper()
	f := &fakeWorker{id: id}
	f.jobs.Store(&jobs)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		switch f.readyMode.Load() {
		case 1:
			panic(http.ErrAbortHandler)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"status":"draining"}`)
		default:
			fmt.Fprint(w, `{"status":"ready"}`)
		}
	})
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.gotJobs.Add(1)
		// Consume the body first: net/http only watches for client aborts
		// (r.Context cancellation) once the request body has been read, and
		// several tests park handlers on that context. Handlers that route on
		// the spec read the buffered copy (see jobName).
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		(*f.jobs.Load())(w, r)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// jobName returns the forwarded spec's name.
func jobName(r *http.Request) string {
	var spec serve.JobSpec
	json.NewDecoder(r.Body).Decode(&spec)
	return spec.Name
}

func okView(worker string) string {
	return fmt.Sprintf(`{"id":"j","status":"done","result":{"program":"fake","cycles":42,"arch_insts":7,"worker":%q}}`, worker)
}

// fastConfig keeps the probe clock test-sized.
func fastConfig() Config {
	return Config{
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		Detector:      DetectorConfig{MinInterval: 50 * time.Millisecond},
	}
}

func newTestCoordinator(t *testing.T, cfg Config, workers ...*fakeWorker) *Coordinator {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	for _, f := range workers {
		if err := c.AddWorker(JoinInfo{ID: f.id, URL: f.ts.URL, Runners: 2}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestExecuteRemoteHappyPath(t *testing.T) {
	f := newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okView("w1"))
	})
	c := newTestCoordinator(t, fastConfig(), f)
	rr, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{Asm: "x", TimeoutMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Worker != "w1" || rr.Status != "done" || rr.HTTPStatus != 200 || rr.Result == nil || rr.Result.Cycles != 42 {
		t.Fatalf("unexpected result: %+v", rr)
	}
	if st := c.Stats(); st.Jobs != 1 || st.Dispatches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNoWorkersIsUnavailable(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	_, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{TimeoutMS: 1000})
	if !errors.Is(err, serve.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable", err)
	}
	if st := c.Stats(); st.Degradations != 1 {
		t.Errorf("degradations = %d, want 1", st.Degradations)
	}
}

func TestTransientAnswersRetryWithBackoff(t *testing.T) {
	var calls atomic.Int32
	f := newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, okView("w1"))
	})
	c := newTestCoordinator(t, fastConfig(), f)
	rr, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{TimeoutMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Result == nil || calls.Load() != 3 {
		t.Fatalf("result %+v after %d calls, want success on 3rd", rr, calls.Load())
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
}

func TestRetriesExhaustToUnavailable(t *testing.T) {
	f := newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	c := newTestCoordinator(t, fastConfig(), f)
	_, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{TimeoutMS: 5000})
	if !errors.Is(err, serve.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable after retry budget", err)
	}
	if st := c.Stats(); st.Retries != maxDispatchRetries {
		t.Errorf("retries = %d, want %d", st.Retries, maxDispatchRetries)
	}
}

// keysHomedOn returns n fingerprints whose ring home is the given worker on
// a ring of the given workers.
func keysHomedOn(t *testing.T, n int, home string, workers ...string) []string {
	t.Helper()
	probe := NewRing()
	for _, id := range workers {
		probe.Add(id)
	}
	var keys []string
	for i := 0; i < 10_000 && len(keys) < n; i++ {
		if k := fmt.Sprintf("fp-%d", i); probe.Lookup(k) == home {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("found %d of %d keys homed on %s", len(keys), n, home)
	}
	return keys
}

type remoteAnswer struct {
	rr  *serve.RemoteResult
	err error
}

// submit runs ExecuteRemote in the background and delivers its answer on the
// returned channel.
func submit(c *Coordinator, key, name string) <-chan remoteAnswer {
	out := make(chan remoteAnswer, 1)
	go func() {
		rr, err := c.ExecuteRemote(context.Background(), key, serve.JobSpec{Name: name, TimeoutMS: 30_000})
		out <- remoteAnswer{rr, err}
	}()
	return out
}

func await(t *testing.T, what string, ch <-chan remoteAnswer) remoteAnswer {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return remoteAnswer{}
	}
}

func queuedOn(c *Coordinator, id string) int {
	for _, m := range c.Members() {
		if m.ID == id {
			return m.Queued
		}
	}
	return -1
}

// saturatedHome builds w1 and w2 (two slots each), fills both of w1's slots
// with "hang" jobs that block until release is closed, and returns the keys
// homed on w1 left over for the test. w1 answers every other job at once;
// other, when non-nil, overrides that answer.
func saturatedHome(t *testing.T, release <-chan struct{}, other http.HandlerFunc) (c *Coordinator, w1, w2 *fakeWorker, hung []<-chan remoteAnswer, keys []string) {
	t.Helper()
	w1 = newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		if jobName(r) != "hang" {
			if other != nil {
				other(w, r)
			} else {
				fmt.Fprint(w, okView("w1"))
			}
			return
		}
		select {
		case <-release:
			fmt.Fprint(w, okView("w1"))
		case <-r.Context().Done():
		}
	})
	w2 = newFakeWorker(t, "w2", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okView("w2"))
	})
	c = newTestCoordinator(t, fastConfig(), w1, w2)
	keys = keysHomedOn(t, 3, "w1", "w1", "w2")
	for _, k := range keys[:2] {
		hung = append(hung, submit(c, k, "hang"))
	}
	waitFor(t, "w1 saturated", 2*time.Second, func() bool { return w1.gotJobs.Load() == 2 })
	return c, w1, w2, hung, keys[2:]
}

// TestSaturatedHomeKeepsItsQueue: a job homed on a worker whose slots are all
// busy waits in that worker's queue instead of running on an idle worker,
// and runs at home once a slot frees — the home's run cache is where the
// result of a repeat will be.
func TestSaturatedHomeKeepsItsQueue(t *testing.T) {
	release := make(chan struct{})
	c, _, w2, hung, keys := saturatedHome(t, release, nil)
	queued := submit(c, keys[0], "queued")
	waitFor(t, "third job queued on w1", 2*time.Second, func() bool { return queuedOn(c, "w1") == 1 })
	time.Sleep(200 * time.Millisecond)
	if n := w2.gotJobs.Load(); n != 0 {
		t.Fatalf("w2 received %d jobs while w1 was saturated, want 0", n)
	}
	close(release)
	if a := await(t, "queued job", queued); a.err != nil || a.rr.Worker != "w1" {
		t.Fatalf("queued job answered %+v, %v; want w1", a.rr, a.err)
	}
	for _, ch := range hung {
		if a := await(t, "hung job", ch); a.err != nil {
			t.Errorf("hung job: %v", a.err)
		}
	}
	if n := w2.gotJobs.Load(); n != 0 {
		t.Errorf("w2 received %d jobs, want 0", n)
	}
}

// TestDrainingWorkerQueueIsRehomed: when a saturated worker starts draining
// (readyz 503) it leaves Alive, its queued job moves to the next ring node,
// and its in-flight jobs still finish where they run.
func TestDrainingWorkerQueueIsRehomed(t *testing.T) {
	release := make(chan struct{})
	c, w1, _, hung, keys := saturatedHome(t, release, nil)
	queued := submit(c, keys[0], "queued")
	waitFor(t, "third job queued on w1", 2*time.Second, func() bool { return queuedOn(c, "w1") == 1 })
	w1.readyMode.Store(2)
	if a := await(t, "queued job", queued); a.err != nil || a.rr.Worker != "w2" {
		t.Fatalf("queued job answered %+v, %v; want w2", a.rr, a.err)
	}
	close(release)
	for _, ch := range hung {
		if a := await(t, "in-flight job", ch); a.err != nil || a.rr.Worker != "w1" {
			t.Errorf("in-flight job answered %+v, %v; want w1", a.rr, a.err)
		}
	}
	if n := w1.gotJobs.Load(); n != 2 {
		t.Errorf("w1 received %d jobs, want only the 2 in flight", n)
	}
}

// TestNoDispatchToQuarantinedPair: two tasks of one key wait in w1's queue
// behind hanging jobs. When w1 panics on the first, the pair is quarantined
// and the second moves to w2 without ever reaching w1.
func TestNoDispatchToQuarantinedPair(t *testing.T) {
	release := make(chan struct{}, 1)
	c, w1, _, _, keys := saturatedHome(t, release, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"id":"j","status":"failed","error":"sim: worker panic: boom"}`)
	})
	boom := []<-chan remoteAnswer{submit(c, keys[0], "boom"), submit(c, keys[0], "boom")}
	waitFor(t, "both tasks queued on w1", 2*time.Second, func() bool { return queuedOn(c, "w1") == 2 })
	release <- struct{}{} // free one of w1's slots
	for _, ch := range boom {
		if a := await(t, "boom job", ch); a.err != nil || a.rr.Worker != "w2" || a.rr.HTTPStatus != http.StatusOK {
			t.Errorf("boom job answered %+v, %v; want success on w2", a.rr, a.err)
		}
	}
	if n := w1.gotJobs.Load(); n != 3 {
		t.Errorf("w1 received %d jobs, want 3 (two hanging, one panic)", n)
	}
	if st := c.Stats(); st.PairsBlocked != 1 {
		t.Errorf("pairs blocked = %d, want 1", st.PairsBlocked)
	}
}

// TestPanicAnswerQuarantinesPair: a worker that answers a job with a panic
// gets the (worker, fingerprint) pair quarantined and the job one reroute;
// when every worker has panicked on the key, the failure is relayed and the
// key's next submission finds no eligible worker.
func TestPanicAnswerQuarantinesPair(t *testing.T) {
	panicAnswer := func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"id":"j","status":"failed","error":"sim: worker panic: boom (stack retained server-side, job quarantined on repeat)"}`)
	}
	w1 := newFakeWorker(t, "w1", panicAnswer)
	w2 := newFakeWorker(t, "w2", panicAnswer)
	c := newTestCoordinator(t, fastConfig(), w1, w2)

	rr, err := c.ExecuteRemote(context.Background(), "fp-panic", serve.JobSpec{TimeoutMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if rr.HTTPStatus != http.StatusInternalServerError || rr.Status != "failed" || !strings.Contains(rr.Error, "panic") {
		t.Fatalf("relayed result = %+v, want the worker's panic failure", rr)
	}
	st := c.Stats()
	if st.PairsBlocked != 2 {
		t.Errorf("pairs blocked = %d, want 2 (both workers panicked on the key)", st.PairsBlocked)
	}
	if st.Reroutes != 1 {
		t.Errorf("reroutes = %d, want exactly 1 panic reroute", st.Reroutes)
	}
	// The key is now unplaceable; other keys still route.
	if _, err := c.ExecuteRemote(context.Background(), "fp-panic", serve.JobSpec{TimeoutMS: 5000}); !errors.Is(err, serve.ErrRemoteUnavailable) {
		t.Errorf("quarantined key err = %v, want ErrRemoteUnavailable", err)
	}
}

// TestWorkerDeathRequeuesExactlyOnce: the worker running the job dies (hard
// probe failures), the in-flight dispatch is cancelled and requeued to the
// survivor; when the survivor dies too, the client gets the typed
// serve.ErrWorkerLost instead of an unbounded retry loop.
func TestWorkerDeathRequeuesExactlyOnce(t *testing.T) {
	hang := func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}
	w1 := newFakeWorker(t, "w1", hang)
	w2 := newFakeWorker(t, "w2", hang)
	c := newTestCoordinator(t, fastConfig(), w1, w2)

	errc := make(chan error, 1)
	go func() {
		_, err := c.ExecuteRemote(context.Background(), "fp-doomed", serve.JobSpec{TimeoutMS: 30_000})
		errc <- err
	}()
	waitFor(t, "first dispatch in flight", 2*time.Second, func() bool {
		return w1.gotJobs.Load()+w2.gotJobs.Load() >= 1
	})
	first, second := w1, w2
	if w2.gotJobs.Load() > 0 {
		first, second = w2, w1
	}
	first.readyMode.Store(1)
	waitFor(t, "death requeue", 5*time.Second, func() bool { return c.Stats().Requeues == 1 })
	waitFor(t, "second dispatch in flight", 5*time.Second, func() bool { return second.gotJobs.Load() >= 1 })
	second.readyMode.Store(1)

	select {
	case err := <-errc:
		if !errors.Is(err, serve.ErrWorkerLost) {
			t.Fatalf("err = %v, want ErrWorkerLost after the second death", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job never resolved after both workers died")
	}
	st := c.Stats()
	if st.Requeues != 1 {
		t.Errorf("requeues = %d, want exactly 1", st.Requeues)
	}
	if st.WorkersDead != 2 {
		t.Errorf("workersDead = %d, want 2", st.WorkersDead)
	}
}

// TestDrainingWorkerParksAndRecovers: a worker answering readyz 503 leaves
// the ring (no new placements) without being declared dead, and rejoins as
// soon as it reports ready again.
func TestDrainingWorkerParksAndRecovers(t *testing.T) {
	f := newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okView("w1"))
	})
	c := newTestCoordinator(t, fastConfig(), f)
	waitFor(t, "worker alive", 2*time.Second, func() bool { return c.Stats().WorkersLive == 1 })

	f.readyMode.Store(2)
	waitFor(t, "worker parked", 2*time.Second, func() bool { return c.Stats().WorkersLive == 0 })
	if c.Stats().WorkersDead != 0 {
		t.Errorf("draining worker was declared dead")
	}
	if _, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{TimeoutMS: 1000}); !errors.Is(err, serve.ErrRemoteUnavailable) {
		t.Errorf("err = %v, want ErrRemoteUnavailable while the only worker drains", err)
	}

	f.readyMode.Store(0)
	waitFor(t, "worker recovered", 2*time.Second, func() bool { return c.Stats().WorkersLive == 1 })
	if _, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{TimeoutMS: 5000}); err != nil {
		t.Errorf("post-recovery job failed: %v", err)
	}
}

func TestJoinEndpointAndMembers(t *testing.T) {
	f := newFakeWorker(t, "w9", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okView("w9"))
	})
	c := newTestCoordinator(t, fastConfig())
	front := httptest.NewServer(c.Mount(http.NotFoundHandler()))
	t.Cleanup(front.Close)

	body := fmt.Sprintf(`{"id":"w9","url":%q,"runners":2}`, f.ts.URL)
	resp, err := http.Post(front.URL+"/fabric/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d", resp.StatusCode)
	}
	// Bad joins are rejected.
	resp, err = http.Post(front.URL+"/fabric/join", "application/json", strings.NewReader(`{"id":"","url":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad join: %d, want 400", resp.StatusCode)
	}

	mresp, err := http.Get(front.URL + "/fabric/members")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var view struct {
		Members []MemberView `json:"members"`
		Stats   Stats        `json:"stats"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if len(view.Members) != 1 || view.Members[0].ID != "w9" || view.Members[0].State != "alive" {
		t.Fatalf("members = %+v", view.Members)
	}
	if view.Stats.WorkersTotal != 1 {
		t.Fatalf("stats = %+v", view.Stats)
	}
}

func TestJoinLoopRegistersAndHeartbeats(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	front := httptest.NewServer(c.Mount(http.NotFoundHandler()))
	t.Cleanup(front.Close)
	f := newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okView("w1"))
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go JoinLoop(ctx, front.URL, JoinInfo{ID: "w1", URL: f.ts.URL, Runners: 1}, 20*time.Millisecond, t.Logf)
	waitFor(t, "join-loop registration", 2*time.Second, func() bool {
		m := c.Members()
		return len(m) == 1 && m[0].ID == "w1"
	})
}
