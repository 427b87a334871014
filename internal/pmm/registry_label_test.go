package pmm_test

import (
	"os"
	"path/filepath"
	"testing"

	"yashme/internal/fuzzprog"
	"yashme/internal/pmm"
	"yashme/internal/script"
	"yashme/internal/workload"
	_ "yashme/internal/workload/all"
)

// TestLabelForMatchesReferenceOnWorkloadHeaps runs Setup of every
// registered workload, of generated fuzz programs and of the example
// scripts, then requires LabelFor to render every address of the heap —
// each field, padding byte, line-alignment gap and a stretch past the end
// — exactly as the fmt-based reference renderer does. Race reports name
// bugs by these labels, so any difference would change the goldens.
func TestLabelForMatchesReferenceOnWorkloadHeaps(t *testing.T) {
	progs := map[string]func() pmm.Program{}
	for _, spec := range workload.All() {
		progs[spec.Name] = spec.Make
	}
	for seed := int64(1); seed <= 4; seed++ {
		mk, _ := fuzzprog.Generate(fuzzprog.Default(), seed)
		progs["fuzzprog-"+mk().Name] = mk
	}
	paths, err := filepath.Glob("../../examples/scripts/*.ym")
	if err != nil || len(paths) == 0 {
		t.Fatalf("example scripts: %v (found %d)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := script.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		progs["script-"+filepath.Base(path)] = sc.MakeProgram()
	}
	for name, mk := range progs {
		h := pmm.NewHeap()
		mk().Setup(h)
		if h.AllocCount() == 0 {
			t.Errorf("%s: Setup allocated nothing", name)
			continue
		}
		for addr := pmm.Addr(0); addr < h.NextFree()+2*pmm.CacheLineSize; addr++ {
			if got, want := h.LabelFor(addr), pmm.ReferenceLabelFor(h, addr); got != want {
				t.Errorf("%s: LabelFor(0x%x) = %q, reference %q", name, uint64(addr), got, want)
				break
			}
		}
	}
}
