package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"dmp/internal/exp"
	"dmp/internal/serve"
	"dmp/internal/store"
	"dmp/internal/telemetry"
)

// daemon is one in-process dmpserve on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

// startDaemon restarts the daemon the way a process restart would: a
// fresh in-memory result cache, the store reopened from disk, a new
// server.
func startDaemon(st *store.Store) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    serve.New(serve.Config{Store: st, Parallel: runtime.NumCPU()}),
		url:    "http://" + l.Addr().String(),
		served: make(chan error, 1),
	}
	d.hs = &http.Server{Handler: d.srv}
	go func() { d.served <- d.hs.Serve(l) }()
	return d, nil
}

// stop shuts the listener down, drains the server and waits for the
// serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	d.srv.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// suiteResponse is one POST /v1/experiments?wait=1 exchange.
type suiteResponse struct {
	run             serve.RunStatus
	headers, decode time.Duration
}

// postSuite asks the daemon for every experiment at scale 1 with the
// checker on, in the given order, as `dmpexp -remote` does. The client
// holds one connection and sends the next request only after this one
// returns.
func postSuite(client *http.Client, url string, ids []string) (*suiteResponse, error) {
	check := true
	body, err := json.Marshal(serve.ExperimentsRequest{IDs: ids, Scale: paperScale, Check: &check})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := client.Post(url+"/v1/experiments?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := &suiteResponse{headers: time.Since(t0)}
	t1 := time.Now()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return out, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out.run); err != nil {
		return out, fmt.Errorf("decode response: %w", err)
	}
	out.decode = time.Since(t1)
	return out, nil
}

// suiteErrors checks a suite response: every table present, in
// exp.IDs order byte-identical to the golden output, and the run done.
func suiteErrors(golden map[string]string, run *serve.RunStatus) []error {
	var errs []error
	if run.State != "done" {
		errs = append(errs, fmt.Errorf("run %s: %s", run.State, run.Error))
	}
	got := map[string]string{}
	for _, tb := range run.Tables {
		if tb.Error != "" {
			errs = append(errs, fmt.Errorf("%s: %s", tb.ID, tb.Error))
			continue
		}
		got[tb.ID] = tb.Text + "\n"
	}
	if len(run.Tables) != len(exp.IDs()) {
		errs = append(errs, fmt.Errorf("%d tables, want %d", len(run.Tables), len(exp.IDs())))
	}
	return append(errs, checkTables(golden, got)...)
}

// warmErrors adds the warm-restart check: the store answered everything.
func warmErrors(golden map[string]string, run *serve.RunStatus) []error {
	errs := suiteErrors(golden, run)
	if run.Counts == nil || run.Counts.Simulated != 0 {
		errs = append(errs, fmt.Errorf("warm restart simulated: counts %+v", run.Counts))
	}
	return errs
}

// runServeRestart fills a fresh store by running the scale-1 suite
// through an in-process dmpserve (set-up: simulations and store writes),
// then in each repetition restarts the daemon over that store and sends
// the same request again from one closed-loop client, the traffic of
// `dmpexp -remote` after a daemon restart. The seed permutes the id
// order of each request; the check reorders the tables, compares them with the golden
// output and requires that nothing was simulated.
func runServeRestart(r *runner) error {
	golden, err := goldenTables(r.golden)
	if err != nil {
		return err
	}
	all := exp.IDs()
	nextOrder := func() []string {
		ids := make([]string, len(all))
		for i, j := range r.order(len(all)) {
			ids[i] = all[j]
		}
		return ids
	}
	dir := filepath.Join(r.work, "store")
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	err = r.setup(1, func() error {
		exp.Reset()
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		d, err := startDaemon(st)
		if err != nil {
			return err
		}
		resp, err := postSuite(client, d.url, nextOrder())
		err = errors.Join(err, d.stop())
		if err != nil {
			return err
		}
		return errors.Join(suiteErrors(golden, &resp.run)...)
	})
	if err != nil {
		return err
	}

	if r.traced {
		d, err := annotateAll()
		if err != nil {
			return err
		}
		r.set("exp.annotate_s", d.Seconds())
	}

	var tally schedTally
	var entries float64
	err = r.loop(func(root *telemetry.Span) (time.Duration, error) {
		t0 := time.Now()
		exp.Reset()
		before := telemetry.DefaultRegistry().Snapshot()
		sp := root.Child("store.Open", catStore)
		t := time.Now()
		st, err := store.Open(dir)
		open := time.Since(t)
		sp.End()
		if err != nil {
			return 0, err
		}
		sp = root.Child("serve.New", catServe)
		dmn, err := startDaemon(st)
		sp.End()
		if err != nil {
			return 0, err
		}
		sp = root.Child("POST /v1/experiments", catServe)
		resp, reqErr := postSuite(client, dmn.url, nextOrder())
		sp.End()
		took := time.Since(t0)
		root.End()
		if err := dmn.stop(); err != nil {
			return 0, err
		}
		client.CloseIdleConnections()

		counts := exp.ResultCache().Counts()
		delta := telemetry.DefaultRegistry().Snapshot().Delta(before)
		r.op(reqErr)
		if reqErr == nil {
			for _, err := range warmErrors(golden, &resp.run) {
				r.fail(err)
			}
		}
		if resp != nil {
			r.add("serve.headers_ms", 1e3*resp.headers.Seconds())
			r.add("serve.decode_ms", 1e3*resp.decode.Seconds())
		}
		r.add("serve.requests", counterVal(delta, "dmp_serve_requests_total"))
		r.add("serve.failed", counterVal(delta, "dmp_serve_requests_failed_total"))
		r.add("store.open_ms", 1e3*open.Seconds())
		entries = float64(st.Len())
		r.addSched(&tally, counts, delta)
		return took, nil
	})
	if err != nil {
		return err
	}
	r.setReuse(tally)
	r.set("store.entries", entries)
	if r.traced {
		return storeCosts(r, dir)
	}
	return nil
}

// storeCosts times store.Get over every digest of the filled store, and
// store.Put of each loaded entry into a scratch store.
func storeCosts(r *runner, dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	scratch, err := store.Open(filepath.Join(r.work, "scratch-store"))
	if err != nil {
		return err
	}
	var get, put time.Duration
	digests := st.Digests()
	for _, dg := range digests {
		t0 := time.Now()
		stats, ok := st.Get(dg)
		get += time.Since(t0)
		meta, mok := st.Meta(dg)
		if !ok || !mok {
			r.fail(fmt.Errorf("store entry %s unreadable", dg))
			continue
		}
		t0 = time.Now()
		_, err := scratch.Put(meta, stats)
		put += time.Since(t0)
		if err != nil {
			return err
		}
	}
	if n := float64(len(digests)); n > 0 {
		r.set("store.get_us", 1e6*get.Seconds()/n)
		r.set("store.put_us", 1e6*put.Seconds()/n)
	}
	return nil
}
