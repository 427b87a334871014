// Quickstart: the paper's Figure 1 program, end to end.
//
// The pre-crash execution stores 0x1234567812345678 to pmobj->val and then
// flushes the cache line; the post-crash execution prints the field if it
// is non-zero. Because the store is non-atomic, the compiler may implement
// it with two 32-bit store instructions (gcc's ARM64 backend does exactly
// that), so a crash between them makes the store PARTIALLY persistent — the
// post-crash read can observe 0x12345678.
//
// Yashme reports the persistency race on pmobj.val even for crash points
// after the clflush, thanks to the prefix-based detection-window expansion;
// with TornValues enabled, the engine also synthesizes the torn value the
// paper's example prints.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"

	"yashme"
)

// pmobjType is Figure 1's struct, compiled once: Setup re-runs for every
// crash scenario, so it only allocates.
var (
	pmobjType = yashme.Compile(yashme.Layout{{Name: "val", Size: 8}})
	pmobjVal  = pmobjType.Ref("val")
)

func main() {
	var observed []uint64
	makeProg := func() yashme.Program {
		var val yashme.Addr
		return yashme.Program{
			Name: "figure1",
			Setup: func(h *yashme.Heap) {
				val = h.AllocStruct("pmobj", pmobjType).At(pmobjVal)
				h.Init(val, 8, 0)
			},
			Workers: []func(*yashme.Thread){func(t *yashme.Thread) {
				t.Store64(val, 0x1234567812345678) // pmobj->val = 0x1234567812345678;
				t.CLFlush(val)                     // flush(&pmobj->val);
			}},
			PostCrash: func(t *yashme.Thread) {
				if v := t.Load64(val); v != 0 { // if (pmobj->val != 0)
					observed = append(observed, v) //   printf("0x%PRIx64\n", pmobj->val);
				}
			},
		}
	}

	res := yashme.Run(makeProg, yashme.Options{
		Mode:       yashme.ModelCheck,
		Prefix:     true,
		TornValues: true,
		Workers:    1, // the observed slice is shared across program instances
	})

	fmt.Printf("explored %d executions (%d crash points)\n", res.ExecutionsRun, res.CrashPoints)
	for _, race := range res.Report.Races() {
		fmt.Println("detected:", race)
	}
	fmt.Println("post-crash reads observed:")
	for _, v := range observed {
		marker := ""
		if v == 0x12345678 {
			marker = "   <-- the torn value from the paper's Figure 1"
		}
		fmt.Printf("  0x%x%s\n", v, marker)
	}
}
