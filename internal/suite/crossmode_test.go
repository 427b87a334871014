package suite

import (
	"reflect"
	"testing"

	"yashme/internal/engine"
)

// behaviour is the part of a run that is a function of the workload and its
// variant alone: the verdict and the operations the explored executions
// performed. Everything else in a RunResult measures how the engine got
// there (simulated ops, captures, clock-arena activity).
type behaviour struct {
	Races       any
	Benign      any
	RaceCount   int
	Window      []engine.PointStat
	Executions  int
	CrashPoints int
	Ops         [5]int64 // stores, loads, flushes, fences, rmws
}

func behaviourOf(r *RunResult) behaviour {
	s := r.Stats
	return behaviour{
		Races:       r.Races,
		Benign:      r.Benign,
		RaceCount:   r.RaceCount,
		Window:      r.Window,
		Executions:  r.Executions,
		CrashPoints: r.CrashPoints,
		Ops:         [5]int64{s.Stores, s.Loads, s.Flushes, s.Fences, s.RMWs},
	}
}

// TestCrossModeEquality: the engine's reference semantics — every crash
// scenario re-simulated from scratch (Checkpoint off), no scenario
// memoization (Dedup off), one worker — must agree with the default fast
// paths on every behavioural field of every run in the registry, across
// every variant group. A crash discards every operation after it, and a
// scenario resumed from a snapshot must see exactly the state a re-simulated
// one builds, so not even the per-kind operation counts may move.
//
// The run also checks the scheduler's accounting on every run: each
// simulated operation either picked among live threads (a handoff) or ran
// solo, every run has a solo phase (single-threaded recovery at least), and
// the clock arena's epoch fast path fires.
func TestCrossModeEquality(t *testing.T) {
	base := Config{Workers: 2}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"checkpoint-off", Config{Workers: 2, Checkpoint: engine.CheckpointOff}},
		{"dedup-off", Config{Workers: 2, Dedup: engine.DedupOff}},
		{"workers-1", Config{Workers: 1}},
	}
	ref := Run(base)
	checkAccounting(t, "default", ref)
	for _, c := range configs {
		got := Run(c.cfg)
		checkAccounting(t, c.name, got)
		if len(got.Benchmarks) != len(ref.Benchmarks) {
			t.Fatalf("%s: %d benchmarks, default has %d", c.name, len(got.Benchmarks), len(ref.Benchmarks))
		}
		for i := range ref.Benchmarks {
			rb, gb := &ref.Benchmarks[i], &got.Benchmarks[i]
			if len(rb.Runs) != len(gb.Runs) {
				t.Fatalf("%s: %s has %d runs, default has %d", c.name, rb.Name, len(gb.Runs), len(rb.Runs))
			}
			for j := range rb.Runs {
				want := reflect.ValueOf(behaviourOf(&rb.Runs[j]))
				have := reflect.ValueOf(behaviourOf(&gb.Runs[j]))
				for f := 0; f < want.NumField(); f++ {
					if w, h := want.Field(f).Interface(), have.Field(f).Interface(); !reflect.DeepEqual(w, h) {
						t.Errorf("%s: %s/%s: %s diverges from the default:\ndefault: %v\n%s: %v",
							c.name, rb.Name, rb.Runs[j].Variant, want.Type().Field(f).Name, w, c.name, h)
					}
				}
			}
		}
	}
}

func checkAccounting(t *testing.T, name string, res *Result) {
	t.Helper()
	for _, b := range res.Benchmarks {
		for _, r := range b.Runs {
			s := r.Stats
			if s.Handoffs+s.DirectOps != s.SimulatedOps {
				t.Errorf("%s: %s/%s: Handoffs (%d) + DirectOps (%d) != SimulatedOps (%d)",
					name, b.Name, r.Variant, s.Handoffs, s.DirectOps, s.SimulatedOps)
			}
			if s.DirectOps == 0 {
				t.Errorf("%s: %s/%s: no operation ran solo", name, b.Name, r.Variant)
			}
		}
	}
	if res.TotalStats().EpochHits == 0 {
		t.Errorf("%s: the epoch fast path never fired", name)
	}
}
