// Package script parses a small text format describing persistent-memory
// programs and turns it into runnable pmm.Programs, so the yashme CLI can
// check user-written PM code without recompiling anything — the stand-in
// for pointing the original tool's LLVM pass at your own program.
//
// Format (line-based, '#' comments):
//
//	program figure1
//
//	alloc pmobj val:8 flag:8      # a struct with named, sized fields
//	array seg 16 key:8 value:8    # an array of 16 structs
//	init pmobj.val 0              # fully-persisted initial value
//
//	thread                        # one pre-crash worker (repeatable)
//	  store pmobj.val 0x1234567812345678
//	  clflush pmobj.val
//
//	post                          # the recovery procedure (repeatable for
//	  load pmobj.val              # multithreaded recovery)
//
// Operations: store / storerel / storeatomic ADDR VALUE;
// load / loadacq ADDR; cas ADDR OLD NEW; clflush / clwb / clflushopt ADDR;
// sfence; mfence; persist ADDR; memset NAME BYTE; yield;
// guard { ... } (checksum-validation reads). ADDR is name.field or
// name[idx].field; VALUE is decimal or 0x-hex. Field names are unique
// within an object, and one alloc or array spans at most 1 MiB.
package script

import (
	"fmt"
	"strconv"
	"strings"

	"yashme/internal/pmm"
)

// Script is a parsed program description.
type Script struct {
	Name    string
	allocs  []allocDecl
	inits   []initDecl
	threads [][]stmt
	post    [][]stmt
}

type allocDecl struct {
	name   string
	count  int // 0 = plain struct
	layout pmm.Layout
	typ    *pmm.Type // layout compiled once per parse
	line   int
}

type initDecl struct {
	ref  addrRef
	val  uint64
	line int
}

type addrRef struct {
	obj   string
	index int // -1 = not an array access
	field string
	// Resolved by validate: the object's position in Script.allocs and
	// the field's handle in its type.
	decl int
	ref  pmm.FieldRef
}

type stmt struct {
	op   string
	addr addrRef
	obj  string // for memset
	decl int    // for memset: obj's position in Script.allocs
	args []uint64
	line int
	// guard marks statements inside a guard block.
	guard bool
}

// ParseError is a script syntax or semantic error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("script: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...interface{}) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads the script source.
func Parse(src string) (*Script, error) {
	sc := &Script{Name: "script"}
	var cur *[]stmt
	inGuard := false
	for lineNo, raw := range strings.Split(src, "\n") {
		n := lineNo + 1
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "program":
			if len(fields) != 2 {
				return nil, errf(n, "usage: program NAME")
			}
			sc.Name = fields[1]
		case "alloc", "array":
			decl, err := parseAlloc(fields, n)
			if err != nil {
				return nil, err
			}
			sc.allocs = append(sc.allocs, decl)
		case "init":
			if len(fields) != 3 {
				return nil, errf(n, "usage: init OBJ.FIELD VALUE")
			}
			ref, err := parseAddr(fields[1], n)
			if err != nil {
				return nil, err
			}
			v, err := parseVal(fields[2], n)
			if err != nil {
				return nil, err
			}
			sc.inits = append(sc.inits, initDecl{ref: ref, val: v, line: n})
		case "thread":
			sc.threads = append(sc.threads, nil)
			cur = &sc.threads[len(sc.threads)-1]
			inGuard = false
		case "post":
			sc.post = append(sc.post, nil)
			cur = &sc.post[len(sc.post)-1]
			inGuard = false
		case "guard":
			if cur == nil {
				return nil, errf(n, "guard outside a thread/post block")
			}
			if len(fields) != 2 || fields[1] != "{" {
				return nil, errf(n, "usage: guard {")
			}
			inGuard = true
		case "}":
			if !inGuard {
				return nil, errf(n, "unmatched }")
			}
			inGuard = false
		default:
			if cur == nil {
				return nil, errf(n, "statement %q outside a thread/post block", fields[0])
			}
			st, err := parseStmt(fields, n)
			if err != nil {
				return nil, err
			}
			st.guard = inGuard
			*cur = append(*cur, st)
		}
	}
	if inGuard {
		return nil, errf(0, "unclosed guard block")
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// maxObjectBytes bounds one allocation. The simulator indexes its per-address
// state densely by address, so a script object's size is memory the
// engine may have to back; it also keeps count × stride from overflowing.
const maxObjectBytes = 1 << 20

func parseAlloc(fields []string, n int) (allocDecl, error) {
	decl := allocDecl{line: n}
	idx := 1
	if fields[0] == "array" {
		if len(fields) < 4 {
			return decl, errf(n, "usage: array NAME COUNT field:size ...")
		}
		decl.name = fields[1]
		cnt, err := strconv.Atoi(fields[2])
		if err != nil || cnt <= 0 {
			return decl, errf(n, "bad array count %q", fields[2])
		}
		decl.count = cnt
		idx = 3
	} else {
		if len(fields) < 3 {
			return decl, errf(n, "usage: alloc NAME field:size ...")
		}
		decl.name = fields[1]
		idx = 2
	}
	seen := map[string]bool{}
	for _, f := range fields[idx:] {
		parts := strings.SplitN(f, ":", 2)
		if len(parts) != 2 {
			return decl, errf(n, "bad field %q (want name:size)", f)
		}
		size, err := strconv.Atoi(parts[1])
		if err != nil {
			return decl, errf(n, "bad field size in %q", f)
		}
		switch size {
		case 1, 2, 4, 8:
		default:
			return decl, errf(n, "field size must be 1, 2, 4 or 8 (got %d)", size)
		}
		if seen[parts[0]] {
			return decl, errf(n, "duplicate field %q", parts[0])
		}
		seen[parts[0]] = true
		decl.layout = append(decl.layout, pmm.FieldDef{Name: parts[0], Size: size})
	}
	decl.typ = pmm.Compile(decl.layout)
	if max(decl.count, 1) > maxObjectBytes/decl.typ.Size() {
		return decl, errf(n, "%q spans more than %d bytes", decl.name, maxObjectBytes)
	}
	return decl, nil
}

func parseAddr(s string, n int) (addrRef, error) {
	ref := addrRef{index: -1}
	dot := strings.LastIndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return ref, errf(n, "bad address %q (want OBJ.FIELD)", s)
	}
	ref.field = s[dot+1:]
	obj := s[:dot]
	if br := strings.IndexByte(obj, '['); br >= 0 {
		if !strings.HasSuffix(obj, "]") {
			return ref, errf(n, "bad array index in %q", s)
		}
		idx, err := strconv.Atoi(obj[br+1 : len(obj)-1])
		if err != nil || idx < 0 {
			return ref, errf(n, "bad array index in %q", s)
		}
		ref.index = idx
		obj = obj[:br]
	}
	ref.obj = obj
	return ref, nil
}

func parseVal(s string, n int) (uint64, error) {
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, errf(n, "bad value %q", s)
	}
	return v, nil
}

func parseStmt(fields []string, n int) (stmt, error) {
	st := stmt{op: fields[0], line: n, addr: addrRef{index: -1}}
	needAddr := func() error {
		ref, err := parseAddr(fields[1], n)
		if err != nil {
			return err
		}
		st.addr = ref
		return nil
	}
	needVals := func(k int) error {
		for _, f := range fields[2 : 2+k] {
			v, err := parseVal(f, n)
			if err != nil {
				return err
			}
			st.args = append(st.args, v)
		}
		return nil
	}
	switch st.op {
	case "store", "storerel", "storeatomic":
		if len(fields) != 3 {
			return st, errf(n, "usage: %s ADDR VALUE", st.op)
		}
		if err := needAddr(); err != nil {
			return st, err
		}
		return st, needVals(1)
	case "cas":
		if len(fields) != 4 {
			return st, errf(n, "usage: cas ADDR OLD NEW")
		}
		if err := needAddr(); err != nil {
			return st, err
		}
		return st, needVals(2)
	case "load", "loadacq", "clflush", "clwb", "clflushopt", "persist":
		if len(fields) != 2 {
			return st, errf(n, "usage: %s ADDR", st.op)
		}
		return st, needAddr()
	case "sfence", "mfence", "yield":
		if len(fields) != 1 {
			return st, errf(n, "%s takes no operands", st.op)
		}
		return st, nil
	case "memset":
		if len(fields) != 3 {
			return st, errf(n, "usage: memset OBJ BYTE")
		}
		st.obj = fields[1]
		v, err := parseVal(fields[2], n)
		if err != nil {
			return st, err
		}
		if v > 0xFF {
			return st, errf(n, "memset byte out of range")
		}
		st.args = []uint64{v}
		return st, nil
	}
	return st, errf(n, "unknown operation %q", st.op)
}

// validate checks that every referenced object and field exists and
// resolves each reference to its allocation and field handle.
func (sc *Script) validate() error {
	if len(sc.threads) == 0 {
		return errf(0, "no thread block")
	}
	decls := map[string]int{}
	for i, d := range sc.allocs {
		if _, dup := decls[d.name]; dup {
			return errf(d.line, "duplicate allocation %q", d.name)
		}
		decls[d.name] = i
	}
	checkRef := func(ref *addrRef, line int) error {
		i, ok := decls[ref.obj]
		if !ok {
			return errf(line, "unknown object %q", ref.obj)
		}
		d := sc.allocs[i]
		if ref.index >= 0 && (d.count == 0 || ref.index >= d.count) {
			return errf(line, "index %d out of range for %q", ref.index, ref.obj)
		}
		if ref.index < 0 && d.count > 0 {
			return errf(line, "%q is an array; use %s[i].%s", ref.obj, ref.obj, ref.field)
		}
		for _, f := range d.layout {
			if f.Name == ref.field {
				ref.decl, ref.ref = i, d.typ.Ref(f.Name)
				return nil
			}
		}
		return errf(line, "object %q has no field %q", ref.obj, ref.field)
	}
	for i := range sc.inits {
		if err := checkRef(&sc.inits[i].ref, sc.inits[i].line); err != nil {
			return err
		}
	}
	for _, blocks := range [][][]stmt{sc.threads, sc.post} {
		for _, block := range blocks {
			for j := range block {
				st := &block[j]
				if st.obj != "" {
					i, ok := decls[st.obj]
					if !ok {
						return errf(st.line, "unknown object %q", st.obj)
					}
					st.decl = i
					continue
				}
				if st.addr.obj != "" {
					if err := checkRef(&st.addr, st.line); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// objects are one program instance's allocation handles, indexed like
// Script.allocs: structs holds the plain structs, arrays the arrays.
type objects struct {
	structs []pmm.Struct
	arrays  []pmm.Array
}

// addr returns the address and size of a resolved reference.
func (o *objects) addr(r addrRef) (pmm.Addr, int) {
	s := o.structs[r.decl]
	if r.index >= 0 {
		s = o.arrays[r.decl].At(r.index)
	}
	return s.At(r.ref), r.ref.Size()
}

// span returns the base address and byte size of allocation i.
func (o *objects) span(i int) (pmm.Addr, int) {
	if a := o.arrays[i]; a.Len() > 0 {
		return a.Base(), a.Stride() * a.Len()
	}
	return o.structs[i].Base(), o.structs[i].Size()
}

// MakeProgram returns the engine-compatible constructor.
func (sc *Script) MakeProgram() func() pmm.Program {
	return func() pmm.Program {
		objs := &objects{
			structs: make([]pmm.Struct, len(sc.allocs)),
			arrays:  make([]pmm.Array, len(sc.allocs)),
		}
		run := func(block []stmt) func(*pmm.Thread) {
			return func(t *pmm.Thread) {
				for i := range block {
					st := &block[i]
					if st.guard {
						t.ChecksumGuard(func() { exec(t, st, objs) })
					} else {
						exec(t, st, objs)
					}
				}
			}
		}
		var workers, post []func(*pmm.Thread)
		for _, b := range sc.threads {
			workers = append(workers, run(b))
		}
		for _, b := range sc.post {
			post = append(post, run(b))
		}
		return pmm.Program{
			Name: sc.Name,
			Setup: func(h *pmm.Heap) {
				for i, d := range sc.allocs {
					if d.count > 0 {
						objs.arrays[i] = h.AllocArray(d.name, d.typ, d.count)
					} else {
						objs.structs[i] = h.AllocStruct(d.name, d.typ)
					}
				}
				for _, ini := range sc.inits {
					addr, size := objs.addr(ini.ref)
					h.Init(addr, size, ini.val)
				}
			},
			Workers:          workers,
			PostCrashWorkers: post,
		}
	}
}

func exec(t *pmm.Thread, st *stmt, objs *objects) {
	switch st.op {
	case "store":
		a, size := objs.addr(st.addr)
		t.Store(a, size, st.args[0])
	case "storerel":
		a, size := objs.addr(st.addr)
		t.StoreRelease(a, size, st.args[0])
	case "storeatomic":
		a, size := objs.addr(st.addr)
		t.StoreAtomic(a, size, st.args[0])
	case "load":
		a, size := objs.addr(st.addr)
		t.Load(a, size)
	case "loadacq":
		a, size := objs.addr(st.addr)
		t.LoadAcquire(a, size)
	case "cas":
		a, size := objs.addr(st.addr)
		t.CAS(a, size, st.args[0], st.args[1])
	case "clflush":
		a, _ := objs.addr(st.addr)
		t.CLFlush(a)
	case "clwb":
		a, _ := objs.addr(st.addr)
		t.CLWB(a)
	case "clflushopt":
		a, _ := objs.addr(st.addr)
		t.CLFlushOpt(a)
	case "persist":
		a, size := objs.addr(st.addr)
		t.Persist(a, size)
	case "sfence":
		t.SFence()
	case "mfence":
		t.MFence()
	case "yield":
		t.Yield()
	case "memset":
		base, size := objs.span(st.decl)
		t.Memset(base, size, byte(st.args[0]))
	}
}
