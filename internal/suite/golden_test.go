package suite

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"yashme/internal/fuzzprog"
	"yashme/internal/workload"

	// The stacked golden runs the xfd pass.
	_ "yashme/internal/analysis/all"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden from the current code")

// goldenWorkers fixes the worker budget every golden set runs with; it is
// echoed in the result's config block.
const goldenWorkers = 2

// goldenSets are the frozen canonical results. Every engine fast path is
// checked against them byte for byte, so a mechanism that only exists to
// prove "identical either way" has no reason to stay.
var goldenSets = []struct {
	file string
	cfg  func() Config
}{
	{"registry-yashme.json", func() Config { return Config{Workers: goldenWorkers} }},
	{"registry-yashme-xfd.json", func() Config {
		return Config{Workers: goldenWorkers, Analyses: []string{"yashme", "xfd"}}
	}},
	{"tables45-seed7.json", func() Config { return tables45(7) }},
	{"tables45-seed9973.json", func() Config { return tables45(9973) }},
	{"fuzzprog.json", func() Config {
		return Config{Workers: goldenWorkers, Specs: fuzzSpecs(), Variants: []string{VariantRaces}}
	}},
}

func tables45(seed int64) Config {
	return Config{Workers: goldenWorkers, Tags: []string{workload.TagTable4, workload.TagTable5}, Seed: seed}
}

// fuzzSpecs runs 16 generated multi-worker programs as ad-hoc specs, each
// twice: model-checked (tagged table3) and through the random-mode races
// variant (tagged table4).
func fuzzSpecs() []workload.Spec {
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

// TestGoldens compares the canonical JSON of each golden set with its
// checked-in file and names the first differing JSON path. Regenerate with
// go test ./internal/suite -run TestGoldens -update.
func TestGoldens(t *testing.T) {
	for _, set := range goldenSets {
		t.Run(set.file, func(t *testing.T) {
			got := canonicalJSON(t, Run(set.cfg()))
			path := filepath.Join("testdata", "golden", set.file)
			if *update {
				if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			want = bytes.TrimSuffix(want, []byte("\n"))
			if bytes.Equal(got, want) {
				return
			}
			var w, g any
			if err := json.Unmarshal(want, &w); err != nil {
				t.Fatalf("golden %s: %v", path, err)
			}
			if err := json.Unmarshal(got, &g); err != nil {
				t.Fatal(err)
			}
			t.Fatalf("canonical JSON differs from %s at %s", path, firstDiff("$", w, g))
		})
	}
}

// firstDiff walks two decoded JSON values (object keys sorted, arrays in
// order) and describes the first place they differ.
func firstDiff(path string, want, got any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			wv, wok := w[k]
			gv, gok := g[k]
			switch {
			case !gok:
				return fmt.Sprintf("%s.%s: missing (golden has %v)", path, k, wv)
			case !wok:
				return fmt.Sprintf("%s.%s: unexpected (got %v)", path, k, gv)
			case !reflect.DeepEqual(wv, gv):
				return firstDiff(path+"."+k, wv, gv)
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			break
		}
		for i := 0; i < len(w) && i < len(g); i++ {
			if !reflect.DeepEqual(w[i], g[i]) {
				return firstDiff(fmt.Sprintf("%s[%d]", path, i), w[i], g[i])
			}
		}
		if len(w) != len(g) {
			return fmt.Sprintf("%s: length %d, golden has %d", path, len(g), len(w))
		}
	}
	return fmt.Sprintf("%s: got %v, golden has %v", path, got, want)
}
