package engine

import (
	"bytes"
	"fmt"
	"testing"

	"yashme/internal/fuzzprog"
)

// scenarioDigest renders everything a finished scenario hands on or could
// leak into a later one: its reports, stats, crash bookkeeping, persisted
// image and the state signature of every execution on its detector stack.
func scenarioDigest(sc *scenario) []byte {
	var b bytes.Buffer
	for _, rep := range sc.stack.Reports() {
		fmt.Fprintf(&b, "report raw=%d\n%s", rep.RawCount, rep)
	}
	fmt.Fprintf(&b, "stats %+v\ncrash points %v exec %d\n", sc.stats, sc.crashPoints, sc.execIdx)
	b.Write(sc.image.appendSignature(nil))
	for _, e := range sc.det.Executions() {
		fmt.Fprintf(&b, "\nexec %d crash %d ", e.ID, e.CrashSeq())
		b.Write(e.AppendStateSignature(nil))
	}
	return b.Bytes()
}

// TestShellResumesMatchFreshResumes: resuming several snapshots of one
// probe — keyframes and journal deltas, in an order that shrinks and grows
// the state — one after the other on a single shell must leave each
// scenario exactly as a fresh scenario resumed from the same snapshot
// leaves it, with and without poisoning. This is the reuse contract in
// isolation: a shell's previous scenario is invisible to the next.
func TestShellResumesMatchFreshResumes(t *testing.T) {
	for _, poison := range []bool{false, true} {
		t.Run(fmt.Sprintf("poison=%v", poison), func(t *testing.T) {
			defer SetPoisonShells(poison)()
			resumed := 0
			for seed := int64(1); seed <= 6; seed++ {
				mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
				opts := Options{Mode: ModelCheck, Prefix: true, Checkpoint: CheckpointOn, Seed: seed}.withDefaults()
				probe := newScenario(mk, opts, plan{}, PersistLatest, seed)
				sink := newSnapshotSink(0, opts.MaxCrashPoints)
				sink.configureProbe(opts, probe.det)
				probe.capture = sink
				probe.run()
				n := probe.crashPoints[0]
				if n < 3 {
					continue
				}
				points := []int{n, 1, 0, n / 2, 2, n}
				sh := new(scenario)
				for i, c := range points {
					snap := sink.snaps[c]
					pp := opts.PersistPolicies[i%len(opts.PersistPolicies)]
					got := scenarioDigest(runPlanned(sh, mk, opts, snap, plan{0: c}, pp, seed, nil))
					want := scenarioDigest(runPlanned(nil, mk, opts, snap, plan{0: c}, pp, seed, nil))
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d: resume of point %d (after %v) on a reused shell differs from a fresh resume:\nshell: %s\nfresh: %s",
							seed, c, points[:i], got, want)
					}
					resumed++
				}
			}
			if resumed < 12 {
				t.Fatalf("only %d resumes compared; the fuzz programs lost their crash points", resumed)
			}
		})
	}
}

// TestShellScratchRunsMatchFreshRuns is the from-scratch half of the reuse
// contract (random mode and checkpoint-off runs reset their shell instead of
// copying a snapshot into it): multi-threaded random-mode scenarios with
// recovery crashes, run back to back on one poisoned shell, must each equal
// a fresh scenario.
func TestShellScratchRunsMatchFreshRuns(t *testing.T) {
	defer SetPoisonShells(true)()
	sh := new(scenario)
	for seed := int64(1); seed <= 8; seed++ {
		cfg := fuzzprog.Default()
		cfg.Workers = 2 + int(seed%2)
		mk, _ := fuzzprog.Generate(cfg, seed)
		opts := Options{Mode: RandomMode, Prefix: true, RecoveryCrashes: 2, Seed: seed}.withDefaults()
		p := plan{0: int(seed % 4), 1: int(seed % 3)}
		got := scenarioDigest(runPlanned(sh, mk, opts, nil, p, PersistRandom, seed, nil))
		want := scenarioDigest(runPlanned(nil, mk, opts, nil, p, PersistRandom, seed, nil))
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: from-scratch run on a reused shell differs from a fresh run:\nshell: %s\nfresh: %s", seed, got, want)
		}
	}
}
