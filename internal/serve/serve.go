// Package serve implements the dmpserve daemon: simulation as a
// service over HTTP/JSON. A Server owns one bounded admission queue
// and, when configured with a store, installs the persistent
// content-addressed result store (internal/store) as the backing of
// the process-wide result cache — every simulation any request
// triggers lands on disk, and any later request (or daemon restart) for
// the same (workload bytes, config, scale, checker) key is a read, not
// a simulation.
//
// Endpoints:
//
//	POST /v1/runs           one benchmark under one machine config
//	POST /v1/experiments    paper tables/figures by experiment id
//	GET  /metrics           Prometheus text exposition
//	GET  /healthz, /readyz  liveness / readiness
//
// A POST answers in the request: the handler runs the job and writes
// the final RunStatus with 200 (state done or failed). A ?wait=1 query
// is accepted and ignored. When the admission queue is full a POST
// answers 429 with a fixed Retry-After of one second.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"dmp/internal/core"
	"dmp/internal/exp"
	"dmp/internal/store"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

var (
	mRequests = telemetry.NewCounter("dmp_serve_requests_total",
		"HTTP simulation requests accepted (runs + experiments)")
	mFailed = telemetry.NewCounter("dmp_serve_requests_failed_total",
		"accepted requests that finished with an error")
	// Keeps its dmp_sched_ name: dmpbench reads it as sched.shed.
	mShed = telemetry.NewCounter("dmp_sched_shed_total",
		"requests refused at admission (overload or shutdown)")
)

// Admission bounds. At most maxRunning admitted requests execute at
// once (each fans out onto the simulation worker pool, so this bounds
// requests, not simulations); up to maxQueued more wait their turn.
// Any request beyond that is refused with 429 and Retry-After: 1.
const (
	maxRunning = 2
	maxQueued  = 64
)

// Config parameterizes a Server.
type Config struct {
	// Store, when non-nil, persists every computed result and serves
	// warm-store hits without simulating. It is installed as the backing
	// of the process-wide result cache for the Server's lifetime
	// (removed again by Close).
	Store *store.Store
	// Parallel bounds simulation workers, as exp.Options.Parallel
	// (default NumCPU; the first simulation fixes the process pool).
	Parallel int
	// Span, when non-nil, parents one async child span per accepted
	// request.
	Span *telemetry.Span
}

// Server is the dmpserve HTTP handler plus its admission queue. Create
// with New, serve with any http.Server, release with Close.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// admitted holds one token per admitted request (running or
	// waiting); running holds one per executing request. Tests shrink
	// them before serving.
	admitted chan struct{}
	running  chan struct{}
	inflight sync.WaitGroup

	mu     sync.Mutex
	nextID uint64
	closed bool
}

// New builds a Server and, when cfg.Store is set, installs it behind
// the process-wide result cache.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		admitted: make(chan struct{}, maxRunning+maxQueued),
		running:  make(chan struct{}, maxRunning),
	}
	if cfg.Store != nil {
		exp.ResultCache().SetBacking(newStoreBacking(cfg.Store))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleRun)
	mux.HandleFunc("POST /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops admitting, waits for every request already admitted to
// finish, and uninstalls the backing store. Subsequent POSTs answer 429.
func (s *Server) Close() {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if wasClosed {
		return
	}
	s.inflight.Wait()
	if s.cfg.Store != nil {
		exp.ResultCache().SetBacking(nil)
	}
}

// --- request / response types ---

// RunRequest asks for one benchmark under one machine configuration.
type RunRequest struct {
	// Bench is a workload name (dmpsim -list).
	Bench string `json:"bench"`
	// Mode selects the machine: baseline (default), perfect, dmp, dhp,
	// dualpath, or enhanced — the same vocabulary as dmpsim -mode.
	Mode string `json:"mode,omitempty"`
	// CFMSource overrides the merge-point source (annotated, dynamic,
	// hybrid).
	CFMSource string `json:"cfm_source,omitempty"`
	// Scale is the workload scale factor (default 3).
	Scale int `json:"scale,omitempty"`
	// Check enables the golden-model retirement checker (default true).
	Check *bool `json:"check,omitempty"`
	// Loops runs the loop-marked annotation variant.
	Loops bool `json:"loops,omitempty"`
}

// ExperimentsRequest asks for paper tables/figures by experiment id
// ("all" expands to every id in paper order).
type ExperimentsRequest struct {
	IDs        []string `json:"ids"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	Scale      int      `json:"scale,omitempty"`
	Check      *bool    `json:"check,omitempty"`
}

// TableResult is one experiment's rendered table (or its error).
type TableResult struct {
	ID    string `json:"id"`
	Text  string `json:"text,omitempty"`
	Error string `json:"error,omitempty"`
}

// CacheDelta reports what one request cost the scheduler: Simulated
// counts simulations actually executed, StoreHits results loaded from
// the persistent store, Reused in-memory cache hits. Concurrent
// requests share one cache, so deltas attribute overlapping work to
// whichever request observed it complete.
type CacheDelta struct {
	Reused    uint64 `json:"reused"`
	StoreHits uint64 `json:"store_hits"`
	Simulated uint64 `json:"simulated"`
}

// RunStatus is the response to one accepted request. ID names the
// request's telemetry span and its request feed events.
type RunStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`  // "run" | "experiments"
	State string `json:"state"` // done | failed
	Error string `json:"error,omitempty"`
	// Stats is the simulation result for kind "run".
	Stats *core.Stats `json:"stats,omitempty"`
	// Tables holds the rendered tables for kind "experiments", in
	// requested order.
	Tables         []TableResult `json:"tables,omitempty"`
	Counts         *CacheDelta   `json:"counts,omitempty"`
	ElapsedSeconds float64       `json:"elapsed_seconds,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

// --- handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(format, args...)})
}

func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) options(scale int, check *bool) exp.Options {
	o := exp.DefaultOptions()
	o.Scale = scale
	o.Check = check == nil || *check
	o.Parallel = s.cfg.Parallel
	return o
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decodeStrict(r, &req); err != nil {
		badRequest(w, "bad request body: %v", err)
		return
	}
	if req.Bench == "" {
		badRequest(w, "bench is required")
		return
	}
	if _, err := workload.ByName(req.Bench); err != nil {
		badRequest(w, "%v", err)
		return
	}
	cfg, err := core.ModeConfig(req.Mode)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	cfg.CFMSource = req.CFMSource
	if err := cfg.Validate(); err != nil {
		badRequest(w, "%v", err)
		return
	}
	o := s.options(req.Scale, req.Check)
	s.submit(w, "run", func(sp *telemetry.Span) (*RunStatus, error) {
		ro := o
		ro.Span = sp
		st, err := exp.RunOne(req.Bench, cfg, ro, req.Loops)
		if err != nil {
			return nil, err
		}
		// Hand out a clone: the cached pointer is frozen and shared.
		return &RunStatus{Stats: st.Clone()}, nil
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var req ExperimentsRequest
	if err := decodeStrict(r, &req); err != nil {
		badRequest(w, "bad request body: %v", err)
		return
	}
	ids := req.IDs
	if len(ids) == 1 && ids[0] == "all" {
		ids = exp.IDs()
	}
	if len(ids) == 0 {
		badRequest(w, "ids is required (experiment ids or [\"all\"]; known: %s)", strings.Join(exp.IDs(), " "))
		return
	}
	for _, id := range ids {
		if exp.All[id] == nil {
			badRequest(w, "unknown experiment %q (known: %s)", id, strings.Join(exp.IDs(), " "))
			return
		}
	}
	for _, b := range req.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			badRequest(w, "%v", err)
			return
		}
	}
	o := s.options(req.Scale, req.Check)
	o.Benchmarks = req.Benchmarks
	s.submit(w, "experiments", func(sp *telemetry.Span) (*RunStatus, error) {
		tables, err := runExperiments(ids, o, sp)
		return &RunStatus{Tables: tables}, err
	})
}

// admit takes an admission token without blocking, failing once the
// server is closed or maxRunning+maxQueued requests are in flight.
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	select {
	case s.admitted <- struct{}{}:
		s.inflight.Add(1)
		return true
	default:
		return false
	}
}

// submit admits one POST, runs fn on the handler goroutine once a
// running slot is free, and answers 200 with the final status. fn
// returns the result fields (Stats or Tables); its error marks the
// request failed. A client that goes away does not stop the job.
func (s *Server) submit(w http.ResponseWriter, kind string, fn func(*telemetry.Span) (*RunStatus, error)) {
	if !s.admit() {
		mShed.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "overloaded, retry later"})
		return
	}
	defer s.inflight.Done()
	mRequests.Inc()
	s.running <- struct{}{}
	st := s.execute(kind, fn)
	<-s.running
	<-s.admitted
	writeJSON(w, http.StatusOK, st)
}

// execute runs one admitted request: its id, the telemetry span and
// feed events, and the scheduler-counter delta the response reports.
func (s *Server) execute(kind string, fn func(*telemetry.Span) (*RunStatus, error)) RunStatus {
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("r%06d", s.nextID)
	s.mu.Unlock()
	sp := s.cfg.Span.ChildAsync(id, "serve")
	start := time.Now()
	before := exp.ResultCache().Counts()
	telemetry.Emit(telemetry.Event{Kind: "request", Name: id, Msg: "start"})
	res, err := fn(sp)
	after := exp.ResultCache().Counts()
	elapsed := time.Since(start).Seconds()
	sp.End()
	st := RunStatus{ID: id, Kind: kind, State: "done", ElapsedSeconds: elapsed,
		Counts: &CacheDelta{
			Reused:    after.Hits - before.Hits,
			StoreHits: after.StoreHits - before.StoreHits,
			Simulated: after.Computed - before.Computed,
		}}
	if res != nil {
		st.Stats = res.Stats
		st.Tables = res.Tables
	}
	if err != nil {
		st.State = "failed"
		st.Error = err.Error()
		mFailed.Inc()
	}
	telemetry.Emit(telemetry.Event{Kind: "request", Name: id, Msg: "done", V: elapsed})
	return st
}

// runExperiments mirrors dmpexp's concurrent launch: every experiment
// generates at once (the shared result cache and worker pool dedupe and
// bound the simulations), tables collect in requested order, and a
// failing experiment fails the run without discarding the tables that
// succeeded.
func runExperiments(ids []string, o exp.Options, sp *telemetry.Span) ([]TableResult, error) {
	type gen struct {
		table *exp.Table
		err   error
		done  chan struct{}
	}
	gens := make([]*gen, len(ids))
	for i, id := range ids {
		g := &gen{done: make(chan struct{})}
		gens[i] = g
		go func(id string, g *gen) {
			defer close(g.done)
			eo := o
			esp := sp.ChildAsync(id, "exp")
			eo.Span = esp
			telemetry.Emit(telemetry.Event{Kind: "experiment", Name: id, Msg: "start"})
			g.table, g.err = exp.All[id](eo)
			esp.End()
			telemetry.Emit(telemetry.Event{Kind: "experiment", Name: id, Msg: "done"})
		}(id, g)
	}
	tables := make([]TableResult, len(ids))
	var failed []string
	for i, id := range ids {
		g := gens[i]
		<-g.done
		tables[i] = TableResult{ID: id}
		if g.err != nil {
			tables[i].Error = g.err.Error()
			failed = append(failed, fmt.Sprintf("%s: %v", id, g.err))
			continue
		}
		tables[i].Text = g.table.String()
	}
	if len(failed) > 0 {
		return tables, fmt.Errorf("%s", strings.Join(failed, "; "))
	}
	return tables, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.DefaultRegistry().Snapshot().WritePrometheus(w)
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "shutting down")
		return
	}
	fmt.Fprintln(w, "ready")
}
