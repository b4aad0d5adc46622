package types

import (
	"fmt"

	"repro/internal/arch"
)

// This file compiles the type-specific memory block saving and restoring
// functions of the paper's TI table. Rather than interpreting the type
// graph on every save, registering a type compiles it once per machine into
// a Plan: a flat program of operations over the block's bytes. The save and
// restore sides execute the same plan, so the operation sequence — and
// therefore the wire format — is identical on both machines even though the
// byte offsets and strides inside each operation are machine-specific.

// PlanOp is one step of a save/restore plan. Exactly one of two forms is
// used:
//
//   - scalar run: Sub == nil. Count scalars of kind Kind, the i-th at byte
//     offset Off + i*Stride. PtrElem is the pointee type when Kind is Ptr.
//   - repetition: Sub != nil. The sub-plan applied Count times, the i-th
//     iteration based at Off + i*Stride.
type PlanOp struct {
	Off     int
	Stride  int
	Count   int
	Kind    arch.PrimKind
	PtrElem *Type
	Sub     []PlanOp
}

// Plan is the compiled save/restore program for one type on one machine.
type Plan struct {
	Type *Type
	Mach *arch.Machine
	Ops  []PlanOp

	// Size is the byte size of one element of Type on Mach: the stride
	// between the elements of a block.
	Size int
	// NumScalars is the total scalar count covered (machine-independent).
	NumScalars int
	// HasPtr records whether any operation is a pointer run.
	HasPtr bool
}

// expandLimit bounds plan expansion for arrays of aggregates: beyond this
// many operations the compiler emits a repetition instead of unrolling.
const expandLimit = 64

// packedRun reports whether t flattens to a single homogeneous run of
// scalars with no padding: a primitive, a pointer, or a (nested) array of
// such. The decision depends only on type structure, never on the machine,
// which keeps plan shapes identical across machines. The returned count is
// the scalar count; elem is the pointee type for pointer runs.
func packedRun(t *Type) (kind arch.PrimKind, count int, elem *Type, ok bool) {
	switch t.Kind {
	case KPrim:
		if t.Prim == arch.Void {
			return 0, 0, nil, false
		}
		return t.Prim, 1, nil, true
	case KPointer:
		return arch.Ptr, 1, t.Elem, true
	case KArray:
		k, c, e, inner := packedRun(t.Elem)
		if !inner {
			return 0, 0, nil, false
		}
		return k, c * t.Len, e, true
	}
	return 0, 0, nil, false
}

// compilePlan builds the operation list for t on m.
func compilePlan(t *Type, m *arch.Machine) []PlanOp {
	if k, c, e, ok := packedRun(t); ok {
		return []PlanOp{{
			Off:     0,
			Stride:  m.SizeOf(k),
			Count:   c,
			Kind:    k,
			PtrElem: e,
		}}
	}
	switch t.Kind {
	case KArray:
		sub := compilePlan(t.Elem, m)
		if t.Len*len(sub) <= expandLimit {
			var ops []PlanOp
			for i := 0; i < t.Len; i++ {
				base := i * t.Elem.SizeOf(m)
				for _, op := range sub {
					op.Off += base
					ops = append(ops, op)
				}
			}
			return ops
		}
		return []PlanOp{{
			Off:    0,
			Stride: t.Elem.SizeOf(m),
			Count:  t.Len,
			Sub:    sub,
		}}
	case KStruct:
		var ops []PlanOp
		for i, f := range t.Fields {
			base := t.OffsetOf(m, i)
			for _, op := range compilePlan(f.Type, m) {
				op.Off += base
				ops = append(ops, op)
			}
		}
		return ops
	}
	panic(fmt.Sprintf("types: cannot compile plan for %s", t))
}

// planHasPtr scans a compiled plan for pointer runs.
func planHasPtr(ops []PlanOp) bool {
	for _, op := range ops {
		if op.Sub != nil {
			if planHasPtr(op.Sub) {
				return true
			}
		} else if op.Kind == arch.Ptr {
			return true
		}
	}
	return false
}

// NewPlan compiles the saving/restoring plan for t on machine m.
// Plans are usually obtained through a TI table, which caches them.
func NewPlan(t *Type, m *arch.Machine) *Plan {
	ops := compilePlan(t, m)
	return &Plan{
		Type:       t,
		Mach:       m,
		Ops:        ops,
		Size:       t.SizeOf(m),
		NumScalars: t.ScalarCount(),
		HasPtr:     planHasPtr(ops),
	}
}
