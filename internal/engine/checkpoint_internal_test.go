package engine

// Internal benchmark for the checkpoint layer: the cost of capturing a
// snapshot at every crash point of a probe run (the per-crash-point overhead
// the O(n) + C·capture bound pays), keyframes against journal deltas.

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"yashme/internal/fuzzprog"
)

// deltaArtifact names the file BenchmarkSnapshotDelta writes its artifact
// to (the format of the committed BENCH_delta.json); empty writes nothing.
var deltaArtifact = flag.String("delta-artifact", "", "write the BenchmarkSnapshotDelta artifact (BENCH_delta.json format) to this path")

// BenchmarkSnapshotDelta measures a full probe run capturing at every crash
// point, full-clone keyframes (keyframe=1) against the default delta
// journal. With -delta-artifact=<path> it writes the BENCH_delta.json
// artifact there: per-mode wall-clock, allocation and capture-accounting
// numbers. The delta mode's
// snapshot_bytes is the headline — a journal segment replaces a detector
// clone at all but every K-th point.
func BenchmarkSnapshotDelta(b *testing.B) {
	type measurement struct {
		NsPerOp       int64  `json:"ns_per_op"`
		SnapshotBytes int64  `json:"snapshot_bytes"`
		JournalOps    int64  `json:"journal_ops"`
		AllocsPerOp   uint64 `json:"allocs_per_op"`
		BytesPerOp    uint64 `json:"bytes_per_op"`
	}
	mk, _ := fuzzprog.Generate(fuzzprog.Default(), 7)
	results := map[string]*measurement{}
	for _, mode := range []struct {
		name     string
		keyframe int
	}{
		{"full-clone", 1},
		{"delta", 0}, // 0 = engine default interval
	} {
		mode := mode
		m := &measurement{}
		results[mode.name] = m
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := Options{Mode: ModelCheck, Prefix: true,
				Checkpoint: CheckpointOn, keyframe: mode.keyframe}.withDefaults()
			var stats Stats
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := newScenario(mk, opts, plan{}, PersistLatest, opts.Seed)
				sink := newSnapshotSink(0, opts.MaxCrashPoints)
				sink.configureProbe(opts, sc.det)
				sc.capture = sink
				sc.run()
				stats = sc.stats
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(stats.SnapshotBytes), "snapshot_bytes")
			b.ReportMetric(float64(stats.JournalOps), "journal_ops")
			m.NsPerOp = b.Elapsed().Nanoseconds() / int64(b.N)
			m.SnapshotBytes = stats.SnapshotBytes
			m.JournalOps = stats.JournalOps
			m.AllocsPerOp = (after.Mallocs - before.Mallocs) / uint64(b.N)
			m.BytesPerOp = (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)
		})
	}
	if *deltaArtifact == "" {
		return
	}
	artifact := struct {
		Benchmark string                  `json:"benchmark"`
		Modes     map[string]*measurement `json:"modes"`
		BytesWin  float64                 `json:"snapshot_bytes_ratio_full_over_delta"`
	}{Benchmark: "snapshot-delta", Modes: results}
	if d := results["delta"].SnapshotBytes; d > 0 {
		artifact.BytesWin = float64(results["full-clone"].SnapshotBytes) / float64(d)
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatalf("marshal artifact: %v", err)
	}
	if err := os.WriteFile(*deltaArtifact, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", *deltaArtifact, err)
	}
}
