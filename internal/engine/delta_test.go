package engine_test

import (
	"encoding/json"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/workload"

	_ "yashme/internal/workload/all"
)

// TestDeltaMatchesFullClone: delta checkpoints and crash-image memoization
// are pure mechanism. On a model-check sweep, keyframing every snapshot
// (keyframe 1, the full-clone reference) must match the default delta run
// modulo the capture-accounting counters, and turning memoization off must
// match modulo those plus the work counters its skipped scenarios no longer
// accrue. Races, windows, executions and per-kind operation counts can never
// differ.
func TestDeltaMatchesFullClone(t *testing.T) {
	// The capture-accounting counters measure how state was captured, not
	// what was explored; clock-arena counters follow the capture mechanics
	// too (a journal replay re-runs its segment's joins, a keyframe resume
	// does not). Work counters measure how much simulation ran.
	capture := func(s *engine.Stats) {
		s.SnapshotBytes, s.JournalOps, s.DedupedScenarios = 0, 0, 0
		s.ClockInterned, s.EpochHits, s.EpochMisses = 0, 0, 0
	}
	work := func(s *engine.Stats) {
		s.SimulatedOps, s.Handoffs, s.DirectOps = 0, 0, 0
	}
	canon := func(r *engine.Result, norm ...func(*engine.Stats)) string {
		st := r.Stats
		for _, f := range norm {
			f(&st)
		}
		b, err := json.Marshal(struct {
			Races, Benign any
			Window        []engine.PointStat
			Executions    int
			CrashPoints   int
			Stats         engine.Stats
		}{r.Report.Races(), r.Report.Benign(), r.Window, r.ExecutionsRun, r.CrashPoints, st})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, name := range []string{"CCEH", "P-ART"} {
		spec, ok := workload.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		opts := engine.Options{Mode: engine.ModelCheck, Prefix: true}
		deltas := engine.Run(spec.Make, opts)
		fullClones := engine.Run(spec.Make, engine.WithKeyframe(opts, 1))
		nodedup := opts
		nodedup.Dedup = engine.DedupOff
		scratch := engine.Run(spec.Make, nodedup)

		if deltas.Stats.JournalOps == 0 || fullClones.Stats.JournalOps != 0 {
			t.Errorf("%s: journal ops %d with deltas, %d with full clones; want >0 and 0",
				name, deltas.Stats.JournalOps, fullClones.Stats.JournalOps)
		}
		if deltas.Stats.DedupedScenarios == 0 {
			t.Errorf("%s: default run deduplicated no scenarios; memoization is inert", name)
		}
		if d := scratch.Stats.DedupedScenarios; d != 0 {
			t.Errorf("%s: dedup-off run reports %d deduplicated scenarios", name, d)
		}
		if d, f := canon(deltas, capture), canon(fullClones, capture); d != f {
			t.Errorf("%s: delta run != keyframe-1 run:\n%s\nvs\n%s", name, d, f)
		}
		if d, s := canon(deltas, capture, work), canon(scratch, capture, work); d != s {
			t.Errorf("%s: memoized run != dedup-off run:\n%s\nvs\n%s", name, d, s)
		}
		if on, off := deltas.Stats.SimulatedOps, scratch.Stats.SimulatedOps; on >= off {
			t.Errorf("%s: memoization saved nothing: %d simulated ops with dedup, %d without", name, on, off)
		}
	}
}
