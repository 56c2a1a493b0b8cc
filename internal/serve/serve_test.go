package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmp/internal/exp"
	"dmp/internal/store"
	"dmp/internal/telemetry"
)

// testIDs / testBenches keep the HTTP tests fast: a small experiment
// subset over two short benchmarks at scale 1.
var (
	testIDs     = []string{"table3", "fig1", "fig7"}
	testBenches = []string{"mcf", "twolf"}
)

func postJSON(t *testing.T, url string, body any) (*http.Response, RunStatus) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, st
}

func experimentsBody(ids, benches []string) map[string]any {
	return map[string]any{"ids": ids, "benchmarks": benches, "scale": 1}
}

func tableTexts(t *testing.T, st RunStatus) []string {
	t.Helper()
	if st.State != "done" {
		t.Fatalf("run state %q (error %q), want done", st.State, st.Error)
	}
	var texts []string
	for _, tb := range st.Tables {
		if tb.Error != "" {
			t.Fatalf("table %s failed: %s", tb.ID, tb.Error)
		}
		texts = append(texts, tb.Text)
	}
	return texts
}

// TestWarmStoreServesWithoutSimulating is the acceptance path: a first
// daemon fills the store, a second daemon process (fresh in-memory
// cache, same directory) serves the identical request byte-for-byte
// with zero simulations, and the remote tables match a local run.
func TestWarmStoreServesWithoutSimulating(t *testing.T) {
	dir := t.TempDir()
	defer exp.ResultCache().SetBacking(nil)

	exp.ResetResults()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Store: st1})
	ts1 := httptest.NewServer(srv1)
	resp, run1 := postJSON(t, ts1.URL+"/v1/experiments?wait=1", experimentsBody(testIDs, testBenches))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	cold := tableTexts(t, run1)
	if run1.Counts == nil || run1.Counts.Simulated == 0 {
		t.Fatalf("cold run reported no simulations: %+v", run1.Counts)
	}
	ts1.Close()
	srv1.Close()
	if st1.Len() == 0 {
		t.Fatal("cold run persisted nothing")
	}

	// "Second process": drop the in-memory cache, reopen the store.
	exp.ResetResults()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Store: st2})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()
	_, run2 := postJSON(t, ts2.URL+"/v1/experiments?wait=1", experimentsBody(testIDs, testBenches))
	warm := tableTexts(t, run2)
	if run2.Counts.Simulated != 0 {
		t.Fatalf("warm-store run simulated %d times, want 0 (counts %+v)", run2.Counts.Simulated, run2.Counts)
	}
	if run2.Counts.StoreHits == 0 {
		t.Fatal("warm-store run reported no store hits")
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("table %s differs between cold and warm-store runs:\n--- cold ---\n%s--- warm ---\n%s",
				testIDs[i], cold[i], warm[i])
		}
	}

	// The remote tables are byte-identical to a plain local run.
	exp.ResultCache().SetBacking(nil)
	exp.ResetResults()
	o := exp.DefaultOptions()
	o.Scale = 1
	o.Benchmarks = testBenches
	for i, id := range testIDs {
		tb, err := exp.All[id](o)
		if err != nil {
			t.Fatalf("local %s: %v", id, err)
		}
		if tb.String() != cold[i] {
			t.Fatalf("remote table %s differs from local:\n--- local ---\n%s--- remote ---\n%s",
				id, tb.String(), cold[i])
		}
	}
}

// TestConcurrentClientsCoalesce asserts the dedup guarantee: many
// clients requesting the same experiment concurrently trigger exactly
// the simulations one client would, the rest resolving as cache hits.
func TestConcurrentClientsCoalesce(t *testing.T) {
	// Baseline: how many unique simulations does one run need?
	exp.ResetResults()
	o := exp.DefaultOptions()
	o.Scale = 1
	o.Benchmarks = testBenches
	if _, err := exp.All["table3"](o); err != nil {
		t.Fatal(err)
	}
	unique := exp.ResultCache().Counts().Computed
	if unique == 0 {
		t.Fatal("table3 ran no simulations")
	}

	exp.ResetResults()
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, st := postJSON(t, ts.URL+"/v1/experiments?wait=1",
				experimentsBody([]string{"table3"}, testBenches))
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			if st.State != "done" {
				errs[i] = fmt.Errorf("client %d: state %q error %q", i, st.State, st.Error)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c := exp.ResultCache().Counts()
	if c.Computed != unique {
		t.Fatalf("%d clients computed %d simulations, want %d (coalescing failed; counts %+v)",
			clients, c.Computed, unique, c)
	}
	if c.Hits+c.Computed < clients*unique {
		t.Fatalf("hits %d + computed %d < %d requests' worth of lookups", c.Hits, c.Computed, clients*unique)
	}
}

// TestRunEndpoint covers the single-run path and its error statuses.
// A POST answers in the request with or without ?wait=1.
func TestRunEndpoint(t *testing.T) {
	exp.ResetResults()
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	resp, st := postJSON(t, ts.URL+"/v1/runs?wait=1",
		map[string]any{"bench": "mcf", "mode": "enhanced", "scale": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if st.State != "done" || st.Stats == nil || st.Stats.RetiredInsts == 0 {
		t.Fatalf("unexpected run result: state %q stats %+v", st.State, st.Stats)
	}

	// A repeat without ?wait=1 is answered the same way, from the cache.
	resp2, st2 := postJSON(t, ts.URL+"/v1/runs",
		map[string]any{"bench": "mcf", "mode": "enhanced", "scale": 1})
	if resp2.StatusCode != http.StatusOK || st2.State != "done" || st2.Counts.Simulated != 0 {
		t.Fatalf("repeat run: status %d state %q counts %+v, want 200, done and 0 simulated",
			resp2.StatusCode, st2.State, st2.Counts)
	}
	if *st.Stats != *st2.Stats {
		t.Fatal("repeat run returned different stats")
	}

	for name, body := range map[string]map[string]any{
		"unknown bench": {"bench": "nope"},
		"unknown mode":  {"bench": "mcf", "mode": "warp"},
		"unknown cfm":   {"bench": "mcf", "mode": "dmp", "cfm_source": "psychic"},
		"missing bench": {"mode": "dmp"},
		"unknown field": {"bench": "mcf", "turbo": true},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/runs?wait=1", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestClosedServerSheds pins the deterministic 429 path: a closed
// server refuses every submission with Retry-After set.
func TestClosedServerSheds(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	srv.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/runs?wait=1", map[string]any{"bench": "mcf"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
}

// holdRun starts a blocking submit on its own goroutine, whose job
// reports its name on started and then blocks until release is called.
// It returns once the request holds an admission token; done yields the
// response when submit returns. Release also runs at test cleanup,
// ahead of any srv.Close cleanup registered earlier, so a failing test
// cannot leave Close waiting on a held job.
func holdRun(t *testing.T, srv *Server, name string, started chan<- string) (release func(), done <-chan *httptest.ResponseRecorder) {
	t.Helper()
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	admitted := len(srv.admitted)
	resp := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.submit(rec, "run", func(*telemetry.Span) (*RunStatus, error) {
			started <- name
			<-gate
			return &RunStatus{}, nil
		})
		resp <- rec
	}()
	for deadline := time.Now().Add(5 * time.Second); len(srv.admitted) == admitted; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never admitted", name)
		}
	}
	return release, resp
}

func shedCount() uint64 {
	for _, c := range telemetry.DefaultRegistry().Snapshot().Counters {
		if c.Name == "dmp_sched_shed_total" {
			return c.Value
		}
	}
	return 0
}

// TestOverloadSheds fills the admission bound — one request running,
// one waiting — and checks that the next POST is refused with 429, an
// integer Retry-After, and one more shed count, and that the waiting
// request runs only after the running one finishes.
func TestOverloadSheds(t *testing.T) {
	srv := New(Config{})
	srv.admitted = make(chan struct{}, 2)
	srv.running = make(chan struct{}, 1)
	t.Cleanup(srv.Close)

	started := make(chan string, 2)
	releaseA, _ := holdRun(t, srv, "a", started)
	if got := <-started; got != "a" {
		t.Fatalf("first started %q, want a", got)
	}
	releaseB, _ := holdRun(t, srv, "b", started)
	select {
	case got := <-started:
		t.Fatalf("%s started while a held the only running slot", got)
	case <-time.After(50 * time.Millisecond):
	}

	shed := shedCount()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/runs?wait=1", strings.NewReader(`{"bench":"mcf"}`)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	retry, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
	if d := shedCount() - shed; d != 1 {
		t.Fatalf("dmp_sched_shed_total rose by %d, want 1", d)
	}

	releaseA()
	if got := <-started; got != "b" {
		t.Fatalf("second started %q, want b", got)
	}
	releaseB()
}

// TestCloseDrainsAdmitted checks that Close refuses new requests at
// once but returns only after an admitted, still-running request has
// finished.
func TestCloseDrainsAdmitted(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	started := make(chan string, 1)
	release, done := holdRun(t, srv, "a", started)
	<-started
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()

	// Wait until Close has stopped admission (readyz turns 503).
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported shutting down")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/runs?wait=1", map[string]any{"bench": "mcf"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST during Close: status %d, want 429", resp.StatusCode)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted request was still running")
	case <-time.After(50 * time.Millisecond):
	}

	release()
	<-closed
	rec := <-done
	var st RunStatus
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatalf("decode held response: %v", err)
	}
	if rec.Code != http.StatusOK || st.State != "done" {
		t.Fatalf("admitted run: status %d state %q after Close, want 200 and done", rec.Code, st.State)
	}
}

// FuzzServeRequest throws arbitrary bodies at both POST endpoints of a
// closed server: malformed requests must be rejected with 400 and valid
// ones stop at admission with 429 — never a panic, a 5xx, or a
// simulation.
func FuzzServeRequest(f *testing.F) {
	for _, body := range []string{
		`{"bench":"mcf","mode":"enhanced","scale":1}`,
		`{"ids":["table3"],"benchmarks":["mcf"],"scale":1}`,
		``,
		`{`,
		`null`,
		`{"bench":"mcf","turbo":true}`,
		`{"ids":["nope"],"bench":"gen:x"}`,
	} {
		f.Add(body)
	}
	srv := New(Config{})
	srv.Close()
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/v1/runs?wait=1", "/v1/experiments?wait=1"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusTooManyRequests {
				t.Fatalf("POST %s %q: status %d, want 400 or 429", path, body, rec.Code)
			}
		}
	})
}
