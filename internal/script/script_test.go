package script

import (
	"strings"
	"testing"

	"yashme/internal/engine"
)

const figure1Src = `
program figure1

alloc pmobj val:8
init pmobj.val 0

thread
  store pmobj.val 0x1234567812345678
  clflush pmobj.val

post
  load pmobj.val
`

const allOpsSrc = `
program allops
alloc hdr lock:8 count:2 flag:1
array pairs 4 key:8 value:8
init pairs[0].key 7

thread
  cas hdr.lock 0 1
  storeatomic hdr.flag 1
  store hdr.count 3
  store pairs[1].key 0x10
  store pairs[1].value 0x20
  clwb pairs[1].key
  sfence
  persist hdr.count
  clflushopt hdr.lock
  mfence
  memset pairs 0
  yield
  storerel hdr.lock 0

post
  loadacq hdr.lock
  load pairs[1].key
  guard {
    load pairs[1].value
  }
`

const multiThreadSrc = `
program mt
alloc o x:8 f:8
thread
  store o.x 7
  clflush o.x
thread
  storerel o.f 1
post
  loadacq o.f
post
  load o.x
`

const commentsSrc = `
# leading comment
program c   # trailing comment

alloc o x:8

thread
  # a comment between statements
  store o.x 1
`

const fixedSrc = `
program fixed
alloc pmobj val:8
thread
  storerel pmobj.val 0x1234567812345678
  clflush pmobj.val
post
  loadacq pmobj.val
`

// parseErrorCases maps malformed scripts to a substring of their error.
var parseErrorCases = map[string]string{
	"store x.y 1":                                      "outside a thread",
	"program a b":                                      "usage: program",
	"alloc o":                                          "usage: alloc",
	"alloc o x:3\nthread\n sfence":                     "size must be",
	"array a 0 x:8\nthread\n sfence":                   "bad array count",
	"alloc o x:8\nthread\n store o.y 1":                "no field",
	"alloc o x:8\nthread\n store q.x 1":                "unknown object",
	"alloc o x:8\nthread\n store o.x":                  "usage: store",
	"alloc o x:8\nthread\n frob o.x":                   "unknown operation",
	"alloc o x:8\nthread\n store o.x zz":               "bad value",
	"alloc o x:8\nthread\n sfence extra":               "takes no operands",
	"alloc o x:8\nthread\n guard {":                    "unclosed guard",
	"alloc o x:8\nthread\n }":                          "unmatched }",
	"alloc o x:8\ninit o.x 1":                          "no thread block",
	"array a 2 x:8\nthread\n store a.x 1":              "is an array",
	"array a 2 x:8\nthread\n store a[5].x 1":           "out of range",
	"alloc o x:8\nalloc o y:8\nthread\n sfence":        "duplicate allocation",
	"alloc o x:8 x:4\nthread\n sfence":                 "duplicate field",
	"array a 2305843009213693952 x:8\nthread\n sfence": "spans more than",
}

func TestParseAndRunFigure1(t *testing.T) {
	sc, err := Parse(figure1Src)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "figure1" {
		t.Fatalf("name = %q", sc.Name)
	}
	res := engine.Run(sc.MakeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	races := res.Report.Races()
	if len(races) != 1 || races[0].Field != "pmobj.val" {
		t.Fatalf("races = %v", races)
	}
}

func TestArraysAndAllOps(t *testing.T) {
	src := allOpsSrc
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(sc.MakeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true, MaxCrashPoints: 20})
	// pairs.key is read unguarded (harmful when racy); pairs.value only
	// under the checksum guard (benign).
	for _, r := range res.Report.Races() {
		if r.Field == "pairs.value" {
			t.Fatalf("guarded read reported harmful: %v", r)
		}
	}
	foundBenign := false
	for _, r := range res.Report.Benign() {
		if r.Field == "pairs.value" {
			foundBenign = true
		}
	}
	if !foundBenign {
		t.Fatalf("guarded racy read not classified benign:\n%s", res.Report)
	}
}

func TestMultiThreadAndMultiPost(t *testing.T) {
	src := multiThreadSrc
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog := sc.MakeProgram()()
	if len(prog.Workers) != 2 || len(prog.PostCrashWorkers) != 2 {
		t.Fatalf("threads=%d posts=%d", len(prog.Workers), len(prog.PostCrashWorkers))
	}
	res := engine.Run(sc.MakeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	found := false
	for _, r := range res.Report.Races() {
		if r.Field == "o.x" {
			found = true
		}
	}
	if !found {
		t.Fatal("script multithreaded race not found")
	}
}

func TestParseErrors(t *testing.T) {
	for src, wantErr := range parseErrorCases {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("no error for %q", src)
			continue
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Errorf("error for %q = %q, want substring %q", src, err, wantErr)
		}
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := Parse("alloc o x:8\nthread\n store o.x\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 {
		t.Fatalf("error line = %d, want 3", pe.Line)
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	src := commentsSrc
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.threads) != 1 || len(sc.threads[0]) != 1 {
		t.Fatalf("parsed shape wrong: %+v", sc.threads)
	}
}

func TestFixedScriptHasNoRaces(t *testing.T) {
	src := fixedSrc
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(sc.MakeProgram(), engine.Options{Mode: engine.ModelCheck, Prefix: true})
	if res.Report.Count() != 0 {
		t.Fatalf("fixed script raced:\n%s", res.Report)
	}
}
