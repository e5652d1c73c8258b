package fabric

// In-process cluster integration tests: real serve.Server workers behind a
// real Coordinator, driven through a real serve.Server front end over HTTP.
// These are the fabric's end-to-end contract — affinity routing, SSE across
// worker failover without goroutine leaks, graceful degradation to local
// execution, and the chaos differential (a chaotic 3-node sweep must produce
// byte-identical results to a clean single-node run).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"loopfrog/internal/serve"
)

// loopAsm returns a legal program whose cycle count depends on n, so distinct
// n values give distinct (but deterministic) results.
func loopAsm(n int) string {
	return fmt.Sprintf(`
main:   li   t0, 0
        li   t1, %d
loop:   addi t0, t0, 1
        blt  t0, t1, loop
        halt
`, n)
}

// clusterSpinAsm never halts; only a deadline ends it.
const clusterSpinAsm = `
main:   addi t0, t0, 1
        jal  x0, main
`

type clusterNode struct {
	id  string
	srv *serve.Server
	ts  *httptest.Server
}

type cluster struct {
	coord *Coordinator
	front *serve.Server
	fts   *httptest.Server
	nodes []*clusterNode
}

// newCluster builds n worker daemons, a coordinator probing them, and a
// front-end daemon whose Remote hook is the coordinator. Cleanup order
// (LIFO): front end drains first, then the coordinator cancels its
// dispatches, then the workers shut down — so nothing ever waits on a
// connection the coordinator still holds open.
func newCluster(t *testing.T, n int, chaos *Chaos) *cluster {
	t.Helper()
	cl := &cluster{}
	for i := 0; i < n; i++ {
		node := &clusterNode{id: fmt.Sprintf("w%d", i)}
		node.srv = serve.New(serve.Config{Runners: 2, Workers: 2})
		node.ts = httptest.NewServer(node.srv.Handler())
		srv, ts := node.srv, node.ts
		t.Cleanup(func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
			ts.Close()
		})
		cl.nodes = append(cl.nodes, node)
	}
	cfg := fastConfig()
	cfg.Logf = t.Logf
	if chaos != nil {
		cfg.WrapTransport = chaos.WrapTransport
	}
	cl.coord = NewCoordinator(cfg)
	t.Cleanup(cl.coord.Close)
	for _, node := range cl.nodes {
		if err := cl.coord.AddWorker(JoinInfo{ID: node.id, URL: node.ts.URL, Runners: 2}); err != nil {
			t.Fatalf("AddWorker(%s): %v", node.id, err)
		}
	}
	cl.front = serve.New(serve.Config{Runners: 4, Workers: 1, Remote: cl.coord})
	cl.fts = httptest.NewServer(cl.coord.Mount(cl.front.Handler()))
	front, fts := cl.front, cl.fts
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Shutdown(sctx)
		fts.Close()
	})
	waitFor(t, "all workers alive", 5*time.Second, func() bool {
		return cl.coord.Stats().WorkersLive == n
	})
	return cl
}

// clusterView is the slice of the job view these tests read.
type clusterView struct {
	ID          string          `json:"id"`
	Status      string          `json:"status"`
	Fingerprint string          `json:"fingerprint"`
	Error       string          `json:"error"`
	Result      json.RawMessage `json:"result"`
}

func (v clusterView) worker(t *testing.T) string {
	t.Helper()
	var r struct {
		Worker string `json:"worker"`
	}
	if len(v.Result) > 0 {
		if err := json.Unmarshal(v.Result, &r); err != nil {
			t.Fatalf("bad result %s: %v", v.Result, err)
		}
	}
	return r.Worker
}

func clusterPost(t *testing.T, url string, spec map[string]any) (int, clusterView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v clusterView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("bad job view: %v", err)
	}
	return resp.StatusCode, v
}

func TestClusterAffinityAndCacheReuse(t *testing.T) {
	cl := newCluster(t, 3, nil)
	spec := map[string]any{"name": "aff", "asm": loopAsm(64), "priority": "sweep"}

	code, v1 := clusterPost(t, cl.fts.URL, spec)
	if code != http.StatusOK || v1.Status != "done" {
		t.Fatalf("first submit: %d %+v", code, v1)
	}
	w1 := v1.worker(t)
	if w1 == "" {
		t.Fatalf("first result has no worker: executed locally instead of on the fabric")
	}
	code, v2 := clusterPost(t, cl.fts.URL, spec)
	if code != http.StatusOK || v2.Status != "done" {
		t.Fatalf("second submit: %d %+v", code, v2)
	}
	if w2 := v2.worker(t); w2 != w1 {
		t.Errorf("identical job moved workers: %s then %s (consistent-hash affinity broken)", w1, w2)
	}
	if v1.Fingerprint == "" || v1.Fingerprint != v2.Fingerprint {
		t.Errorf("fingerprints %q vs %q, want equal and non-empty", v1.Fingerprint, v2.Fingerprint)
	}
	// The second run must be served from the executing worker's run cache.
	var hits uint64
	for _, node := range cl.nodes {
		hits += node.srv.Harness().Cache.Hits()
	}
	if hits == 0 {
		t.Errorf("no worker cache hit after identical resubmission; affinity exists but cache reuse does not")
	}
}

func TestClusterAllWorkersLostDegradesLocal(t *testing.T) {
	chaos, err := ParseChaos("kill=0.000001", 7)
	if err != nil {
		t.Fatal(err)
	}
	cl := newCluster(t, 2, chaos)

	// Sanity: the fabric works before the outage.
	code, v := clusterPost(t, cl.fts.URL, map[string]any{"asm": loopAsm(32)})
	if code != http.StatusOK || v.worker(t) == "" {
		t.Fatalf("pre-outage submit: %d worker=%q", code, v.worker(t))
	}

	for _, node := range cl.nodes {
		chaos.Kill(node.id)
	}
	waitFor(t, "all workers dead", 10*time.Second, func() bool {
		return cl.coord.Stats().WorkersLive == 0
	})

	code, v = clusterPost(t, cl.fts.URL, map[string]any{"asm": loopAsm(48)})
	if code != http.StatusOK || v.Status != "done" {
		t.Fatalf("post-outage submit: %d %+v, want local degradation success", code, v)
	}
	if w := v.worker(t); w != "" {
		t.Errorf("post-outage job reports worker %q, want local execution (empty)", w)
	}
	if st := cl.coord.Stats(); st.Degradations == 0 {
		t.Errorf("stats = %+v, want Degradations > 0", st)
	}
}

// sseEvents streams GET /v1/jobs/{id}?stream=1 until the terminal event and
// returns the event names in order plus the terminal data payload.
func sseEvents(t *testing.T, url, id string) ([]string, string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("stream content-type = %q", ct)
	}
	var names []string
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			names = append(names, name)
			if name == "done" {
				// The terminal payload is the done event's own data line,
				// not whatever progress sample preceded it.
				lastData = ""
			}
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			lastData = data
		}
		if len(names) > 0 && names[len(names)-1] == "done" && lastData != "" {
			break
		}
	}
	return names, lastData
}

// TestClusterSSEFailoverNoGoroutineLeak kills the worker executing a
// streamed job mid-flight. The SSE client must still receive a terminal
// event (the requeued attempt's outcome), and the whole exchange — failover,
// requeue, stream teardown — must not leak goroutines.
func TestClusterSSEFailoverNoGoroutineLeak(t *testing.T) {
	chaos, err := ParseChaos("kill=0.000001", 11)
	if err != nil {
		t.Fatal(err)
	}
	cl := newCluster(t, 3, chaos)

	// Warm the front end and measure the steady-state goroutine count.
	if code, v := clusterPost(t, cl.fts.URL, map[string]any{"asm": loopAsm(16)}); code != http.StatusOK || v.Status != "done" {
		t.Fatalf("warmup: %d %+v", code, v)
	}
	time.Sleep(50 * time.Millisecond)
	base := runtime.NumGoroutine()

	code, v := clusterPost(t, cl.fts.URL, map[string]any{
		"name": "spin", "asm": clusterSpinAsm, "timeout_ms": 2000, "async": true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d %+v", code, v)
	}
	if v.Fingerprint == "" {
		t.Errorf("async accept view has no fingerprint")
	}

	done := make(chan struct{})
	var events []string
	var terminal string
	go func() {
		defer close(done)
		events, terminal = sseEvents(t, cl.fts.URL, v.ID)
	}()

	// Find the worker actually executing the spin and kill it.
	var victim string
	waitFor(t, "spin dispatched to a worker", 5*time.Second, func() bool {
		for _, m := range cl.coord.Members() {
			if m.Inflight > 0 {
				victim = m.ID
				return true
			}
		}
		return false
	})
	chaos.Kill(victim)
	waitFor(t, "victim detected dead", 10*time.Second, func() bool {
		return cl.coord.Stats().WorkersDead >= 1
	})

	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("SSE stream never reached a terminal event after worker failover")
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Fatalf("SSE events = %v, want trailing done event", events)
	}
	// The spin's requeued attempt ends at its deadline on the surviving
	// worker; the terminal view must be that worker's 504, not a hang or a
	// coordinator-invented error.
	if !strings.Contains(terminal, `"failed"`) || !strings.Contains(terminal, "deadline") {
		t.Errorf("terminal view %s, want the surviving worker's deadline failure", terminal)
	}
	if st := cl.coord.Stats(); st.Requeues != 1 {
		t.Errorf("stats = %+v, want exactly one requeue", st)
	}

	waitFor(t, "goroutines settle after failover", 10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+5
	})
}

// TestChaosFabricDifferential is the fabric's acceptance check: a sweep run
// on a 3-node fabric under seeded chaos (kills, partitions, delays) must
// produce results byte-identical to a clean single-node run, with only the
// worker attribution differing. It runs at several pinned seeds; the retry,
// requeue and death counts depend on probe timing, so they are logged, not
// asserted.
func TestChaosFabricDifferential(t *testing.T) {
	specs := make([]map[string]any, 10)
	for i := range specs {
		specs[i] = map[string]any{
			"name":     fmt.Sprintf("sweep-%d", i),
			"asm":      loopAsm(100 + 50*i),
			"priority": "sweep",
		}
	}

	// Clean single-node reference.
	single := serve.New(serve.Config{Runners: 2, Workers: 2})
	sts := httptest.NewServer(single.Handler())
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		single.Shutdown(sctx)
		sts.Close()
	})
	want := make([]string, len(specs))
	for i, spec := range specs {
		code, v := clusterPost(t, sts.URL, spec)
		if code != http.StatusOK || v.Status != "done" {
			t.Fatalf("single-node %s: %d %+v", spec["name"], code, v)
		}
		want[i] = normalizeResult(t, v.Result)
	}

	for _, seed := range []int64{1, 3, 7, 9, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Chaotic 3-node fabric, pinned seed: the injected kills,
			// partition windows and delays replay identically run over run.
			chaos, err := ParseChaos("kill=0.0005,partition=0.02,delay=0.1", seed)
			if err != nil {
				t.Fatal(err)
			}
			cl := newCluster(t, 3, chaos)
			for i, spec := range specs {
				code, v := clusterPost(t, cl.fts.URL, spec)
				if code != http.StatusOK || v.Status != "done" {
					t.Fatalf("fabric %s: %d %+v", spec["name"], code, v)
				}
				if got := normalizeResult(t, v.Result); got != want[i] {
					t.Errorf("%s: fabric result diverges under chaos\n fabric: %s\n single: %s", spec["name"], got, want[i])
				}
			}
			st := cl.coord.Stats()
			t.Logf("%s; stats: %+v", chaos, st)
			if st.Jobs == 0 {
				t.Errorf("no jobs reached the coordinator; differential proved nothing")
			}
		})
	}
}

// normalizeResult strips worker attribution (the only field allowed to
// differ between local and fabric execution) and re-marshals with sorted
// keys so comparison is byte-exact.
func normalizeResult(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad result %s: %v", raw, err)
	}
	delete(m, "worker")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
