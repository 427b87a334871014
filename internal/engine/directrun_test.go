package engine_test

// Property tests for the solo-thread direct-run lease (runner.go
// schedState). The lease is unconditional: a thread that is the only
// runnable one runs inline, and the scheduler handoff is paid only while two
// or more threads are runnable. Both paths run in the same execution, so the
// checks here are that every simulated operation lands on exactly one side
// of the Handoffs/DirectOps split, that both sides fire on two-worker
// programs, and that the verdict matches the re-simulating one-worker
// reference run across both checkpoint modes and worker counts. The suite
// runs under -race in CI, which proves the lease protocol itself is data-race
// free: the leased thread touches scenario state the scheduler normally owns.

import (
	"fmt"
	"reflect"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/fuzzprog"
	"yashme/internal/pmm"
	"yashme/internal/progs/cceh"
)

// checkAgainstReference runs mk under opts and under the reference
// semantics (one worker, every scenario re-simulated) and fails the test
// unless the two agree on every behavioural field and opts' run accounts
// for each simulated operation exactly once. Returns opts' Stats.
func checkAgainstReference(t *testing.T, name string, mk func() pmm.Program, opts engine.Options) engine.Stats {
	t.Helper()
	refOpts := opts
	refOpts.Workers = 1
	refOpts.Checkpoint = engine.CheckpointOff
	res := engine.Run(mk, opts)
	ref := engine.Run(mk, refOpts)

	if s, r := res.Report.String(), ref.Report.String(); s != r {
		t.Fatalf("%s: reports diverge:\nrun:\n%s\nreference:\n%s", name, s, r)
	}
	if !reflect.DeepEqual(res.Window, ref.Window) {
		t.Fatalf("%s: windows diverge:\nrun:       %v\nreference: %v", name, res.Window, ref.Window)
	}
	if res.ExecutionsRun != ref.ExecutionsRun {
		t.Fatalf("%s: executions diverge: %d vs %d", name, res.ExecutionsRun, ref.ExecutionsRun)
	}
	if res.CrashPoints != ref.CrashPoints {
		t.Fatalf("%s: crash points diverge: %d vs %d", name, res.CrashPoints, ref.CrashPoints)
	}
	if res.Report.RawCount != ref.Report.RawCount {
		t.Fatalf("%s: raw race counts diverge: %d vs %d", name, res.Report.RawCount, ref.Report.RawCount)
	}
	s, r := res.Stats, ref.Stats
	if ops, refOps := [5]int64{s.Stores, s.Loads, s.Flushes, s.Fences, s.RMWs},
		[5]int64{r.Stores, r.Loads, r.Flushes, r.Fences, r.RMWs}; ops != refOps {
		t.Fatalf("%s: per-kind operation counts diverge: %v vs %v", name, ops, refOps)
	}
	for _, st := range []struct {
		mode string
		st   engine.Stats
	}{{"run", s}, {"reference", r}} {
		if st.st.Handoffs+st.st.DirectOps != st.st.SimulatedOps {
			t.Fatalf("%s: %s: Handoffs (%d) + DirectOps (%d) != SimulatedOps (%d)",
				name, st.mode, st.st.Handoffs, st.st.DirectOps, st.st.SimulatedOps)
		}
	}
	return s
}

// TestDirectRunMatchesHandoff: for random programs and a real benchmark,
// the lease and the handoff share the work of one run without moving its
// verdict — across worker counts and checkpoint modes. Every case has solo
// phases (single-threaded recovery at minimum), so DirectOps must be
// positive; the random programs run two workers, so they must pay the
// handoff as well.
func TestDirectRunMatchesHandoff(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, ck := range []struct {
			name string
			mode engine.CheckpointMode
		}{
			{"checkpoint-on", engine.CheckpointOn},
			{"checkpoint-off", engine.CheckpointOff},
		} {
			workers, ck := workers, ck
			t.Run(fmt.Sprintf("workers-%d/%s", workers, ck.name), func(t *testing.T) {
				t.Parallel()
				opts := engine.Options{Mode: engine.ModelCheck, Prefix: true,
					Workers: workers, Checkpoint: ck.mode}
				for seed := int64(1); seed <= 8; seed++ {
					mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
					name := fmt.Sprintf("fuzz seed %d", seed)
					s := checkAgainstReference(t, name, mk, opts)
					if s.DirectOps == 0 {
						t.Fatalf("%s: lease never fired (DirectOps = 0)", name)
					}
					if s.Handoffs == 0 {
						t.Fatalf("%s: two workers never paid the handoff (Handoffs = 0)", name)
					}
				}
				benchOpts := opts
				benchOpts.MaxCrashPoints = 30
				if s := checkAgainstReference(t, "cceh", cceh.New(3, nil), benchOpts); s.DirectOps == 0 {
					t.Fatal("cceh: lease never fired (DirectOps = 0)")
				}
			})
		}
	}
}
