package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
)

// Artifact names inside a telemetry output directory (Attach's dir, the
// CLIs' -telemetry-out). dmpobs -telemetry reads the same names back.
const (
	SpansFile       = "spans.json"   // Chrome trace_event array (Perfetto)
	EventsFile      = "events.jsonl" // progress feed, one Event per line
	MetricsFile     = "metrics.json" // final Snapshot as JSON
	MetricsPromFile = "metrics.prom" // final Snapshot, Prometheus text
)

// openDir creates dir (if needed) and returns a Set writing spans.json
// and events.jsonl into it; the underlying files close with the Set.
// Finish writes the metrics files once the run is over.
func openDir(dir string) (*Set, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sf, err := os.Create(filepath.Join(dir, SpansFile))
	if err != nil {
		return nil, err
	}
	ef, err := os.Create(filepath.Join(dir, EventsFile))
	if err != nil {
		sf.Close()
		return nil, err
	}
	s := New(Options{SpanW: sf, EventW: ef})
	s.closers = []io.Closer{ef, sf}
	return s, nil
}

// writeMetrics records snap as metrics.json and metrics.prom in dir.
func writeMetrics(dir string, snap Snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, MetricsFile), append(data, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, MetricsPromFile))
	if err != nil {
		return err
	}
	if err := snap.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
