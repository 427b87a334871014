package main

import (
	"fmt"
	"sort"
	"strings"

	"yashme/internal/suite"
)

// table3Fields is the known answer of the paper-size Table 3 sweep: the
// race fields of each index's races run (19 races in all). Every scaled
// instance of the deep workload (16 to 48 keys) reports its index's set
// exactly.
var table3Fields = map[string][]string{
	"CCEH":       {"Pair.key", "Pair.value"},
	"Fast_Fair":  {"btree.root", "entry.key", "entry.ptr", "header.last_index", "header.sibling_ptr", "header.switch_counter"},
	"P-ART":      {"DeletionList.added", "DeletionList.deletitionListCount", "DeletionList.headDeletionList", "DeletionList.thresholdCounter", "LabelDelete.nodesCount", "N.compactCount", "N.count"},
	"P-BwTree":   {"BwTreeBase.epoch"},
	"P-CLHT":     {},
	"P-Masstree": {"leafnode.next", "leafnode.permutation", "masstree.root_"},
}

// multiThreadFields is the known answer of each random-mt program's
// Table 4 configuration, for any seed and 8 to 16 keys.
var multiThreadFields = map[string][]string{
	"CCEH-mt":      {"Pair.key", "Pair.value"},
	"Memcached-mt": {"item.cas", "item_chunk.it_flags", "pslab_pool_t.valid", "pslab_t.id"},
	"Redis-mt":     {},
	"P-CLHT-mt":    {},
}

// Race totals the serve workload's cold jobs must report.
const (
	table3Races  = 19 // races variant of the six indexes
	stackedXFD   = 33 // the xfd pass stacked on the same sweep
	table4Races  = 5  // Table 4 frameworks, any seed
	analysisXFD  = "xfd"
	analysisMain = "yashme"
)

// checkFields is the verdict oracle of the batch workloads: the result must
// be complete, hold a races run for exactly the expected benchmarks, and
// each run's race fields must equal the expected set.
func checkFields(res *suite.Result, want map[string][]string) error {
	if res.Cancelled {
		return fmt.Errorf("result cancelled")
	}
	if len(res.Benchmarks) != len(want) {
		return fmt.Errorf("got %d benchmarks, want %d", len(res.Benchmarks), len(want))
	}
	for i := range res.Benchmarks {
		b := &res.Benchmarks[i]
		exp, ok := want[b.Name]
		if !ok {
			return fmt.Errorf("unexpected benchmark %q", b.Name)
		}
		run := b.Run(suite.RunRaces)
		if run == nil {
			return fmt.Errorf("%s: no races run", b.Name)
		}
		got := make([]string, 0, len(run.Races))
		for _, r := range run.Races {
			got = append(got, r.Field)
		}
		sort.Strings(got)
		exp = append([]string(nil), exp...)
		sort.Strings(exp)
		if g, w := strings.Join(got, ","), strings.Join(exp, ","); g != w || run.RaceCount != len(exp) {
			return fmt.Errorf("%s: race fields [%s] (count %d), want [%s]", b.Name, g, run.RaceCount, w)
		}
	}
	return nil
}

// passTotal sums one analysis pass's race count over every races run.
func passTotal(res *suite.Result, pass string) int {
	n := 0
	for i := range res.Benchmarks {
		if run := res.Benchmarks[i].Run(suite.RunRaces); run != nil {
			if a := run.Analysis(pass); a != nil {
				n += a.RaceCount
			}
		}
	}
	return n
}
