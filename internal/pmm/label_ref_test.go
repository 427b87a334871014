package pmm

import "fmt"

// referenceLabelFor is the fmt-based label renderer Heap.labelFor replaced.
// Tests hold the strconv renderer byte-identical to it, since race reports
// and the golden corpus name bugs by these labels.
func referenceLabelFor(h *Heap, addr Addr) string {
	a := h.findAlloc(addr)
	if a == nil {
		return fmt.Sprintf("0x%x", uint64(addr))
	}
	off := int(addr - a.base)
	if a.typ == nil {
		if off == 0 {
			return a.label
		}
		return fmt.Sprintf("%s+%d", a.label, off)
	}
	idx, rem := 0, off
	if a.count > 1 {
		idx, rem = off/a.stride, off%a.stride
	}
	fieldName := fmt.Sprintf("+%d", rem)
	for _, f := range a.typ.fields {
		if rem >= f.offset && rem < f.offset+f.size {
			fieldName = f.name
			break
		}
	}
	if a.count > 1 {
		return fmt.Sprintf("%s[%d].%s", a.label, idx, fieldName)
	}
	return fmt.Sprintf("%s.%s", a.label, fieldName)
}

// ReferenceLabelFor exposes referenceLabelFor to the external test package.
var ReferenceLabelFor = referenceLabelFor
