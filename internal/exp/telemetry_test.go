package exp

import (
	"testing"

	"dmp/internal/telemetry"
)

// TestTelemetryDoesNotPerturb pins the telemetry contract: re-running
// the same experiments with a fully attached telemetry set — spans,
// feed, metrics, artifact files — yields byte-identical tables.
// Table3 exercises the cached exact-simulation path (simcache events,
// per-simulation spans); Sampling exercises the sampled pipeline
// (stage spans, snapshot and interval-job emission from the consumer
// loop). ResetResults between runs forces the attached pass to
// actually re-simulate rather than replay the cache.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	o := smallOpts()
	t3, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Sampling(o)
	if err != nil {
		t.Fatal(err)
	}

	ResetResults()
	set, err := telemetry.Attach(t.TempDir(), "test", "")
	if err != nil {
		t.Fatal(err)
	}
	defer telemetry.Enable(nil)
	o2 := o
	o2.Span = set.Root()
	t3b, err := Table3(o2)
	if err != nil {
		t.Fatal(err)
	}
	smb, err := Sampling(o2)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Finish(); err != nil {
		t.Fatal(err)
	}

	if t3.String() != t3b.String() {
		t.Errorf("Table3 changed under telemetry:\nwithout:\n%s\nwith:\n%s", t3, t3b)
	}
	if sm.String() != smb.String() {
		t.Errorf("Sampling table changed under telemetry:\nwithout:\n%s\nwith:\n%s", sm, smb)
	}
}
