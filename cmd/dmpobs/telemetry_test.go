package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmp/internal/telemetry"
)

// goodSpans builds a minimal well-formed span forest: a root, a
// same-lane child nested inside it, and a cross-lane async child.
func goodSpans() []traceSpan {
	mk := func(name string, ts, dur int64, tid, id, parent uint64) traceSpan {
		s := traceSpan{Name: name, Ph: "X", TS: ts, Dur: dur, TID: tid}
		s.Args.ID = id
		s.Args.Parent = parent
		return s
	}
	return []traceSpan{
		mk("root", 0, 1000, 1, 1, 0),
		mk("child", 100, 200, 1, 2, 1),
		mk("async", 900, 5000, 3, 3, 1), // cross-lane: may outlive the parent
	}
}

func TestCheckSpans(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func([]traceSpan) []traceSpan
		wantErr string
	}{
		{name: "well-formed", mutate: func(s []traceSpan) []traceSpan { return s }},
		{name: "empty", mutate: func(s []traceSpan) []traceSpan { return nil }, wantErr: "no spans"},
		{name: "bad-phase", mutate: func(s []traceSpan) []traceSpan { s[0].Ph = "B"; return s }, wantErr: "phase"},
		{name: "zero-id", mutate: func(s []traceSpan) []traceSpan { s[1].Args.ID = 0; return s }, wantErr: "zero id"},
		{name: "dup-id", mutate: func(s []traceSpan) []traceSpan { s[2].Args.ID = 2; return s }, wantErr: "duplicate id"},
		{name: "negative-ts", mutate: func(s []traceSpan) []traceSpan { s[0].TS = -1; return s }, wantErr: "implausible window"},
		{name: "zero-dur", mutate: func(s []traceSpan) []traceSpan { s[1].Dur = 0; return s }, wantErr: "implausible window"},
		{name: "dangling-parent", mutate: func(s []traceSpan) []traceSpan { s[1].Args.Parent = 99; return s }, wantErr: "not in trace"},
		{name: "child-escapes", mutate: func(s []traceSpan) []traceSpan { s[1].Dur = 5000; return s }, wantErr: "escapes parent"},
		{name: "child-starts-early", mutate: func(s []traceSpan) []traceSpan { s[1].TS = 0; s[0].TS = 50; s[0].Dur = 950; return s }, wantErr: "escapes parent"},
		{name: "slack-tolerated", mutate: func(s []traceSpan) []traceSpan { s[1].TS = 804; s[1].Dur = 200; return s }}, // ends 4µs past parent
		{name: "async-exempt", mutate: func(s []traceSpan) []traceSpan { s[2].TS = 0; s[2].Dur = 99999; return s }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkSpans(tc.mutate(goodSpans()))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func goodEvents() []telemetry.Event {
	return []telemetry.Event{
		{T: 0, Kind: "run-start", Name: "test"},
		{T: 0.5, Kind: "simulation", Name: "mcf/DMP", Msg: "miss"},
		{T: 1.0, Kind: "progress", N: 1, V: 2, Msg: "fig7"},
		{T: 1.5, Kind: "run-end"},
	}
}

func TestCheckEventStream(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func([]telemetry.Event) []telemetry.Event
		wantErr string
	}{
		{name: "well-formed", mutate: func(e []telemetry.Event) []telemetry.Event { return e }},
		{name: "empty", mutate: func(e []telemetry.Event) []telemetry.Event { return nil }, wantErr: "no events"},
		{name: "no-run-start", mutate: func(e []telemetry.Event) []telemetry.Event { return e[1:] }, wantErr: "want run-start"},
		{name: "missing-kind", mutate: func(e []telemetry.Event) []telemetry.Event { e[1].Kind = ""; return e }, wantErr: "missing kind"},
		{name: "time-travel", mutate: func(e []telemetry.Event) []telemetry.Event { e[2].T = 0.1; return e }, wantErr: "before predecessor"},
		{name: "double-end", mutate: func(e []telemetry.Event) []telemetry.Event {
			return append(e, telemetry.Event{T: 2, Kind: "run-end"})
		}, wantErr: "exactly one"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkEventStream(tc.mutate(goodEvents()))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateTelemetryEndToEnd drives a real run through Attach and
// Finish, with a child span and a progress event, and checks
// validateTelemetry accepts the directory; a metrics.json that decodes
// to an empty snapshot is rejected.
func TestValidateTelemetryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	set, err := telemetry.Attach(dir, "test", "")
	if err != nil {
		t.Fatal(err)
	}
	set.Root().Child("stage", "t").End()
	set.Feed().Emit(telemetry.Event{Kind: "progress", N: 1, V: 1})
	if err := set.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := validateTelemetry(dir); err != nil {
		t.Fatalf("real artifacts rejected: %v", err)
	}

	if err := os.WriteFile(filepath.Join(dir, telemetry.MetricsFile), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateTelemetry(dir); err == nil || !strings.Contains(err.Error(), "no metrics") {
		t.Fatalf("err = %v, want empty-snapshot rejection", err)
	}
}

// TestValidateTrace checks -validate through the span reader: a Tracer
// trace is accepted, and an event that is not a named complete event is
// rejected.
func TestValidateTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(f)
	tr.Begin("root", "t").End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := validateTrace(path); err != nil {
		t.Fatalf("tracer output rejected: %v", err)
	}
	if err := os.WriteFile(path, []byte(`[{"name":"x","ph":"B","ts":0,"dur":1}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateTrace(path); err == nil || !strings.Contains(err.Error(), "complete event") {
		t.Fatalf("err = %v, want a complete-event rejection", err)
	}
}
