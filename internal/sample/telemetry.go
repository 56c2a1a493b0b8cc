package sample

import "dmp/internal/telemetry"

// Host-side telemetry for the sampled-run driver. The stage histograms
// are fed from the same measurements that populate Timing (one
// observation per stage per run); the registry is their one home, and
// the stage spans place the same work on the timeline. The live-snapshots gauge tracks checkpoint memory: it
// rises when the warming pass captures a checkpoint and falls when the
// interval job releases it, so its peak is the streamed pipeline's
// snapshot working set. Everything here is host-side only — no
// simulator state, no effect on Stats or the Manifest.
var (
	mStagePrefix = telemetry.NewHistogram("dmp_sample_prefix_seconds",
		"exactly simulated cold-start prefix, per sampled run", telemetry.SecondsBuckets())
	mStageWarm = telemetry.NewHistogram("dmp_sample_warm_seconds",
		"continuous functional warming pass, per sampled run", telemetry.SecondsBuckets())
	mStageSnapshot = telemetry.NewHistogram("dmp_sample_snapshot_seconds",
		"checkpoint capture (architectural + copy-on-write warm state), per sampled run",
		telemetry.SecondsBuckets())
	mStageDetailed = telemetry.NewHistogram("dmp_sample_detailed_seconds",
		"detailed interval simulation, summed across workers, per sampled run",
		telemetry.SecondsBuckets())
	mStageExtrapolate = telemetry.NewHistogram("dmp_sample_extrapolate_seconds",
		"aggregation and extrapolation, per sampled run", telemetry.SecondsBuckets())
	mLiveSnapshots = telemetry.NewGauge("dmp_sample_live_snapshots",
		"captured checkpoints whose snapshot memory is not yet released")
	mIntervals = telemetry.NewCounter("dmp_sample_intervals_total",
		"detailed intervals simulated")
)

// stageTelemetry publishes one finished run's Timing to the stage
// histograms.
func stageTelemetry(tm Timing) {
	mStagePrefix.Observe(tm.PrefixSeconds)
	mStageWarm.Observe(tm.WarmSeconds)
	mStageSnapshot.Observe(tm.SnapshotSeconds)
	mStageDetailed.Observe(tm.DetailedSeconds)
	mStageExtrapolate.Observe(tm.ExtrapolateSeconds)
}
