package types

import (
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
)

// TI is the Type Information table of the paper: the registry of every type
// a process's memory blocks can have, linked into the process when the
// executable is generated. It assigns each type a stable small index — the
// wire representation of a type — and caches the compiled saving/restoring
// plans per machine.
//
// Because the migratable program is pre-distributed and compiled on every
// potential destination machine, both ends of a migration construct the TI
// table from the same source program, and the indices agree. The Digest
// lets the migration protocol verify that agreement before trusting the
// stream.
//
// A table is filled by Add while the program is compiled and then frozen,
// as the paper's table is fixed when the executable is generated. After
// Freeze the type list never changes, so Index, At, Len and Plan read it
// without locking, and Add panics.
type TI struct {
	mu     sync.Mutex // serializes Add, Freeze and plan compilation
	frozen bool       // guarded by mu
	types  []*Type
	index  map[*Type]int
	// plans lists the per-machine plan tables. A published list is never
	// modified: a new machine publishes a copy.
	plans atomic.Pointer[[]*machinePlans]
}

// machinePlans is one machine's plan table: plans[i] is the plan of the
// type with index i, compiled on first use.
type machinePlans struct {
	m     *arch.Machine
	plans []atomic.Pointer[Plan]
}

// NewTI returns an empty TI table.
func NewTI() *TI {
	return &TI{index: make(map[*Type]int)}
}

// Add registers t (and, transitively, every type reachable from it) and
// returns its index. Adding an already-registered type is a no-op returning
// the existing index. Add panics once the table is frozen.
func (ti *TI) Add(t *Type) int {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if ti.frozen {
		panic(fmt.Sprintf("types: Add(%s) on a frozen TI table", t))
	}
	return ti.add(t)
}

func (ti *TI) add(t *Type) int {
	if i, ok := ti.index[t]; ok {
		return i
	}
	i := len(ti.types)
	ti.types = append(ti.types, t)
	ti.index[t] = i
	switch t.Kind {
	case KPointer, KArray:
		ti.add(t.Elem)
	case KStruct:
		for _, f := range t.Fields {
			ti.add(f.Type)
		}
	}
	return i
}

// Freeze ends registration. The compiler freezes every program's table;
// the first Plan call freezes a table built by hand, because plan tables
// are sized by the final type list.
func (ti *TI) Freeze() {
	ti.mu.Lock()
	ti.frozen = true
	ti.mu.Unlock()
}

// Index returns the index of a registered type. The second result is false
// if the type was never added.
func (ti *TI) Index(t *Type) (int, bool) {
	i, ok := ti.index[t]
	return i, ok
}

// MustIndex returns the index of a registered type, panicking if absent —
// the process invariant is that every live block's type was registered when
// the executable was generated.
func (ti *TI) MustIndex(t *Type) int {
	i, ok := ti.Index(t)
	if !ok {
		panic(fmt.Sprintf("types: type %s not in TI table", t))
	}
	return i
}

// At returns the type with the given index.
func (ti *TI) At(i int) (*Type, error) {
	if i < 0 || i >= len(ti.types) {
		return nil, fmt.Errorf("types: TI index %d out of range (table has %d)", i, len(ti.types))
	}
	return ti.types[i], nil
}

// Len returns the number of registered types.
func (ti *TI) Len() int { return len(ti.types) }

// Plan returns the compiled saving/restoring plan for the registered type
// t on machine m, compiling and caching it on first use. This is the
// paper's "memory block saving and restoring function" generation step.
func (ti *TI) Plan(t *Type, m *arch.Machine) *Plan {
	slot := &ti.machine(m).plans[ti.MustIndex(t)]
	if p := slot.Load(); p != nil {
		return p
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if slot.Load() == nil {
		slot.Store(NewPlan(t, m))
	}
	return slot.Load()
}

// machine returns m's plan table, publishing an empty one (and freezing
// the TI) on first use.
func (ti *TI) machine(m *arch.Machine) *machinePlans {
	if mp := ti.published(m); mp != nil {
		return mp
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if mp := ti.published(m); mp != nil {
		return mp
	}
	ti.frozen = true
	mp := &machinePlans{m: m, plans: make([]atomic.Pointer[Plan], len(ti.types))}
	var next []*machinePlans
	if old := ti.plans.Load(); old != nil {
		next = append(next, *old...)
	}
	next = append(next, mp)
	ti.plans.Store(&next)
	return mp
}

// published returns m's plan table if it exists.
func (ti *TI) published(m *arch.Machine) *machinePlans {
	if tabs := ti.plans.Load(); tabs != nil {
		for _, mp := range *tabs {
			if mp.m == m {
				return mp
			}
		}
	}
	return nil
}

// Digest returns a checksum over the definitions of all registered types,
// in registration order. Two processes built from the same program produce
// the same digest; the migration protocol refuses streams whose digest
// differs.
func (ti *TI) Digest() uint32 {
	h := crc32.NewIEEE()
	for i, t := range ti.types {
		fmt.Fprintf(h, "%d:%s\n", i, t.Definition())
	}
	return h.Sum32()
}

// Types returns the registered types in index order.
func (ti *TI) Types() []*Type {
	out := make([]*Type, len(ti.types))
	copy(out, ti.types)
	return out
}

// Summary returns a human-readable dump of the table, used by the
// pre-compiler's -dump-ti flag.
func (ti *TI) Summary(m *arch.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TI table: %d types (digest %08x) on %s\n", len(ti.types), ti.Digest(), m.Name)
	for i, t := range ti.types {
		fmt.Fprintf(&b, "%4d  %-28s size=%-4d align=%-2d scalars=%-5d ptr=%v\n",
			i, t.String(), t.SizeOf(m), t.AlignOf(m), t.ScalarCount(), t.HasPointer())
	}
	return b.String()
}
