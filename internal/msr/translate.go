package msr

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
)

// This file implements the two directions of pointer translation between
// the machine-specific and machine-independent representations. The paper
// encodes a pointer as a header (the logical identification of the memory
// block the pointer refers to) and an offset (the ordering number of the
// data element inside that block).

// Ref is the machine-independent form of a pointer value.
type Ref struct {
	ID      BlockID
	Ordinal int
}

// NullRef is the encoding of a null pointer.
var NullRef = Ref{ID: BlockID{Seg: memory.NumSegments}, Ordinal: 0}

// IsNull reports whether the reference encodes a null pointer.
func (r Ref) IsNull() bool { return r.ID.Seg >= memory.NumSegments }

// String formats the reference for diagnostics.
func (r Ref) String() string {
	if r.IsNull() {
		return "null"
	}
	return fmt.Sprintf("%s+%d", r.ID, r.Ordinal)
}

// Resolve translates a machine-specific pointer value into its
// machine-independent (header, offset) form using the MSRLT. The machine is
// needed to interpret element sizes. A zero address resolves to NullRef.
func Resolve(t *Table, m *arch.Machine, addr memory.Address) (Ref, error) {
	return ResolveStats(t, m, addr, &t.Stats)
}

// ResolveStats is Resolve with the MSRLT counters recorded into st, so
// concurrent section encoders can translate pointers without racing on
// the table's Stats (see Table.LookupStats). The block's geometry is read
// once, from the type's published per-machine layout, without locking.
func ResolveStats(t *Table, m *arch.Machine, addr memory.Address, st *Stats) (Ref, error) {
	if addr == 0 {
		return NullRef, nil
	}
	b, off, err := t.LookupStats(addr, func(ty *types.Type) int { return ty.SizeOf(m) }, st)
	if err != nil {
		return Ref{}, err
	}
	es := b.Type.SizeOf(m)
	if es == 0 {
		return Ref{}, fmt.Errorf("msr: block %s has zero-size element type %s", b.ID, b.Type)
	}
	per := b.Type.ScalarCount()
	elem, rest := off/es, off%es
	if elem == b.Count {
		// One past the end of the block.
		return Ref{ID: b.ID, Ordinal: b.Count * per}, nil
	}
	// Byte 0 of an element is always its scalar 0, so only interior
	// pointers need the offset-to-ordinal walk.
	within := 0
	if rest != 0 {
		var ok bool
		if within, ok = b.Type.OffsetToOrdinal(m, rest); !ok {
			return Ref{}, fmt.Errorf("msr: address %#x falls in padding of block %s (%s)",
				uint64(addr), b.ID, b.Type)
		}
	}
	return Ref{ID: b.ID, Ordinal: elem*per + within}, nil
}

// AddrOf translates a machine-independent reference back to a
// machine-specific address, the restoration direction.
func AddrOf(t *Table, m *arch.Machine, r Ref) (memory.Address, error) {
	return AddrOfStats(t, m, r, &t.Stats)
}

// AddrOfStats is AddrOf with the resolve counter recorded into st, so
// concurrent section restorers can translate references without racing on
// the table's Stats — the restoration-direction twin of ResolveStats (the
// block index is read-only once every section's blocks are registered).
func AddrOfStats(t *Table, m *arch.Machine, r Ref, st *Stats) (memory.Address, error) {
	if r.IsNull() {
		return 0, nil
	}
	b, ok := t.ByIDStats(r.ID, st)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownID, r.ID)
	}
	return BlockAddr(b, m, r.Ordinal)
}

// BlockAddr computes the address of the ordinal-th scalar of block b on
// machine m. ordinal may equal the block's scalar count (one past the end).
func BlockAddr(b *Block, m *arch.Machine, ordinal int) (memory.Address, error) {
	per := b.Type.ScalarCount()
	total := b.Count * per
	if ordinal < 0 || ordinal > total {
		return 0, fmt.Errorf("%w: %d of %d in %s", ErrBadOrdinal, ordinal, total, b.ID)
	}
	es := b.Type.SizeOf(m)
	if ordinal == total {
		return b.Addr + memory.Address(b.Count*es), nil
	}
	elem, within := ordinal/per, ordinal%per
	off := elem * es
	if within != 0 { // scalar 0 of an element is at its byte 0

		off += b.Type.OrdinalToOffset(m, within)
	}
	return b.Addr + memory.Address(off), nil
}
