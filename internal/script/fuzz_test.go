package script

import (
	"os"
	"path/filepath"
	"testing"

	"yashme/internal/pmm"
)

// FuzzScriptParse requires that Parse never panics, and that every script
// it accepts instantiates: the program's Setup allocates all its compiled
// layouts on a fresh heap without panicking. The seed corpus is the
// package's test scripts, the parse-error cases and examples/scripts.
func FuzzScriptParse(f *testing.F) {
	for _, src := range []string{figure1Src, allOpsSrc, multiThreadSrc, commentsSrc, fixedSrc} {
		f.Add(src)
	}
	for src := range parseErrorCases {
		f.Add(src)
	}
	paths, err := filepath.Glob("../../examples/scripts/*.ym")
	if err != nil || len(paths) == 0 {
		f.Fatalf("example scripts: %v (found %d)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse(src)
		if err != nil {
			return
		}
		prog := sc.MakeProgram()()
		h := pmm.NewHeap()
		prog.Setup(h)
		if h.AllocCount() != len(sc.allocs) {
			t.Fatalf("Setup made %d allocations, script declares %d", h.AllocCount(), len(sc.allocs))
		}
	})
}
