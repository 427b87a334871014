package engine_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"yashme/internal/engine"
	"yashme/internal/fuzzprog"
	"yashme/internal/suite"
	"yashme/internal/workload"

	// The stacked golden runs the xfd pass.
	_ "yashme/internal/analysis/all"
)

// TestShellReuseIsInvisible reruns the registry goldens (both analysis
// stacks) and the fuzzprog corpus golden with shell poisoning on: every
// scenario reset first scribbles garbage over every array it is about to
// reuse, so any state a reset fails to copy or clear changes the results.
// The canonical JSON must still equal the frozen golden bytes, at one worker
// (one shell for planning and execution) and at two (a shell per worker plus
// the planner's).
func TestShellReuseIsInvisible(t *testing.T) {
	defer engine.SetPoisonShells(true)()
	sets := []struct {
		file string
		cfg  suite.Config
	}{
		{"registry-yashme.json", suite.Config{}},
		{"registry-yashme-xfd.json", suite.Config{Analyses: []string{"yashme", "xfd"}}},
		{"fuzzprog.json", suite.Config{Specs: goldenFuzzSpecs(), Variants: []string{suite.VariantRaces}}},
	}
	for _, set := range sets {
		want, err := os.ReadFile(filepath.Join("..", "suite", "testdata", "golden", set.file))
		if err != nil {
			t.Fatal(err)
		}
		want = bytes.TrimSuffix(want, []byte("\n"))
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", set.file, workers), func(t *testing.T) {
				cfg := set.cfg
				cfg.Workers = workers
				got, err := suite.Run(cfg).Canonical().JSON()
				if err != nil {
					t.Fatal(err)
				}
				// The goldens were taken at two workers; the config block
				// echoes the budget, nothing else depends on it.
				got = bytes.Replace(got, []byte(fmt.Sprintf(`"workers": %d,`, workers)), []byte(`"workers": 2,`), 1)
				if !bytes.Equal(got, want) {
					t.Fatalf("canonical JSON with poisoned shells differs from %s (%d vs %d bytes)", set.file, len(got), len(want))
				}
			})
		}
	}
}

// goldenFuzzSpecs mirrors the fuzzprog golden's spec list (internal/suite's
// fuzzSpecs): 16 generated multi-worker programs, each model-checked and run
// through the random-mode races variant.
func goldenFuzzSpecs() []workload.Spec {
	var specs []workload.Spec
	for seed := int64(1); seed <= 16; seed++ {
		cfg := fuzzprog.Default()
		cfg.Workers = 2 + int(seed%2)
		mk, _ := fuzzprog.Generate(cfg, seed)
		name := fmt.Sprintf("fuzz-%02d", seed)
		specs = append(specs,
			workload.Spec{Name: name + "-mc", Order: int(2 * seed), Make: mk, ModelCheck: true, Tags: []string{workload.TagTable3}},
			workload.Spec{Name: name + "-random", Order: int(2*seed + 1), Make: mk, Tags: []string{workload.TagTable4}})
	}
	return specs
}
