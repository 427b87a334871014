package suite

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"yashme/internal/engine"
)

// TestClockInternMatchesOwned: the interned clock arena with the epoch fast
// path is the only clock representation, so it must reproduce the verdicts
// of the reference semantics (every scenario re-simulated, no memoization,
// one worker) under every fast-path combination the engine offers, and the
// arena's own cost counters must be a function of the workload alone: the
// worker count may not move a byte of the canonical JSON, clock counters
// included. The epoch path must fire in every combination — skipping joins
// is what the interned representation exists for.
func TestClockInternMatchesOwned(t *testing.T) {
	canon := func(r *Result) []byte {
		c := r.Canonical()
		c.Config.Workers = 0
		data, err := c.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	base := Config{
		Names:    []string{"CCEH", "P-ART"},
		Variants: []string{VariantRaces},
	}
	refCfg := base
	refCfg.Checkpoint, refCfg.Dedup, refCfg.Workers = engine.CheckpointOff, engine.DedupOff, 1
	ref := Run(refCfg)
	for _, ck := range []engine.CheckpointMode{engine.CheckpointOn, engine.CheckpointOff} {
		for _, dd := range []engine.DedupMode{engine.DedupOn, engine.DedupOff} {
			var first []byte
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("ck=%d/dd=%d/w=%d", ck, dd, workers)
				cfg := base
				cfg.Checkpoint, cfg.Dedup, cfg.Workers = ck, dd, workers
				res := Run(cfg)

				if len(res.Benchmarks) != len(ref.Benchmarks) {
					t.Fatalf("%s: %d benchmarks, reference has %d", name, len(res.Benchmarks), len(ref.Benchmarks))
				}
				for i := range ref.Benchmarks {
					rb, gb := &ref.Benchmarks[i], &res.Benchmarks[i]
					if len(rb.Runs) != len(gb.Runs) {
						t.Fatalf("%s: %s has %d runs, reference has %d", name, rb.Name, len(gb.Runs), len(rb.Runs))
					}
					for j := range rb.Runs {
						if w, h := behaviourOf(&rb.Runs[j]), behaviourOf(&gb.Runs[j]); !reflect.DeepEqual(w, h) {
							t.Errorf("%s: %s/%s diverges from the reference:\nreference: %+v\nrun:       %+v",
								name, rb.Name, rb.Runs[j].Variant, w, h)
						}
					}
				}
				if h := res.TotalStats().EpochHits; h == 0 {
					t.Errorf("%s: interned run took the epoch fast path 0 times", name)
				}

				data := canon(res)
				if first == nil {
					first = data
				} else if !bytes.Equal(first, data) {
					t.Fatalf("%s: canonical JSON depends on the worker count:\n%s\nvs\n%s", name, first, data)
				}
			}
		}
	}
}
