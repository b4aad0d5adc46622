package collect

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/msr"
	"repro/internal/types"
	"repro/internal/xdr"
)

// RestoreStats decomposes the cost of a restoration in the terms of the
// paper's Section 4.2: Restore = MSRLT_update + Decode_and_Copy.
type RestoreStats struct {
	// UpdateTime is time spent allocating blocks and updating the MSRLT
	// (only accumulated when instrumented).
	UpdateTime time.Duration
	// DecodeTime is time spent converting and copying block contents
	// (only accumulated when instrumented).
	DecodeTime time.Duration
	// Blocks is the number of memory blocks restored.
	Blocks int64
	// Allocated is the subset of blocks newly allocated on the heap
	// (variable blocks already exist in the rebuilt frames).
	Allocated int64
	// Pointers is the number of pointer scalars decoded.
	Pointers int64
	// DataBytes is the number of content bytes decoded.
	DataBytes int64
}

// Add folds another restoration's counters into s (used to aggregate the
// per-section restore statistics of a sectioned snapshot).
func (s *RestoreStats) Add(o RestoreStats) {
	s.UpdateTime += o.UpdateTime
	s.DecodeTime += o.DecodeTime
	s.Blocks += o.Blocks
	s.Allocated += o.Allocated
	s.Pointers += o.Pointers
	s.DataBytes += o.DataBytes
}

// Restorer rebuilds memory blocks in a destination process from a
// collection stream. The destination's MSRLT must already contain the
// global and stack variable blocks (re-registered while reconstructing the
// execution state); heap blocks are allocated on demand as their records
// arrive, exactly mirroring the source's traversal.
type Restorer struct {
	space *memory.Space
	table *msr.Table
	ti    *types.TI
	mach  *arch.Machine
	dec   *xdr.Decoder

	restored map[msr.BlockID]bool

	// flat disables the inline-record discipline: pointer references are
	// translated through the MSRLT only, never followed by a block
	// record. Sectioned snapshots use this mode — the records live in
	// the directory of the section that owns each block.
	flat bool

	// msrStats receives the MSRLT resolve counters. It defaults to the
	// table's own Stats; a parallel section restorer points it at a
	// worker-private set (folded into the table after the join) so
	// concurrent restorers never race on the shared counters.
	msrStats *msr.Stats

	// Instrument enables the fine-grained timing split in Stats.
	Instrument bool
	Stats      RestoreStats
}

// NewRestorer returns a Restorer reading from dec into the destination
// process state.
func NewRestorer(space *memory.Space, table *msr.Table, ti *types.TI, dec *xdr.Decoder) *Restorer {
	return &Restorer{
		space:    space,
		table:    table,
		ti:       ti,
		mach:     space.Machine(),
		dec:      dec,
		restored: make(map[msr.BlockID]bool),
		msrStats: &table.Stats,
	}
}

// RestoreVariable restores the memory block containing the variable at
// addr (the paper's Restore_variable(&x)). It verifies the stream's
// reference resolves to the same block the destination laid the variable
// out in — a cheap consistency check between the two processes.
func (r *Restorer) RestoreVariable(addr memory.Address) error {
	got, err := r.restorePointerValue()
	if err != nil {
		return err
	}
	if got != addr {
		return fmt.Errorf("%w: restored variable reference %#x does not match destination layout %#x",
			ErrMismatch, uint64(got), uint64(addr))
	}
	return nil
}

// RestorePointer decodes one pointer value (the paper's
// p = Restore_pointer()), restoring the referenced component of the MSR
// graph if this is its first occurrence, and returns the machine-specific
// address the pointer takes on the destination.
func (r *Restorer) RestorePointer() (memory.Address, error) {
	return r.restorePointerValue()
}

func (r *Restorer) restorePointerValue() (memory.Address, error) {
	r.Stats.Pointers++
	seg, err := r.dec.Uint32()
	if err != nil {
		return 0, fmt.Errorf("%w: truncated pointer reference", ErrCorruptStream)
	}
	if seg == nullSeg {
		return 0, nil
	}
	if seg >= uint32(memory.NumSegments) {
		return 0, fmt.Errorf("%w: invalid segment %d", ErrCorruptStream, seg)
	}
	major, minor, ordinal, err := r.dec.Uint32x3()
	if err != nil {
		return 0, fmt.Errorf("%w: truncated pointer reference", ErrCorruptStream)
	}
	ref := msr.Ref{
		ID:      msr.BlockID{Seg: memory.Segment(seg), Major: major, Minor: minor},
		Ordinal: int(ordinal),
	}
	if !r.flat && !r.restored[ref.ID] {
		r.restored[ref.ID] = true
		if err := r.restoreBlock(ref.ID); err != nil {
			return 0, err
		}
	}
	addr, err := msr.AddrOfStats(r.table, r.mach, ref, r.msrStats)
	if err != nil {
		// Every target must have been registered by now — by an earlier
		// record in the monolithic stream, or by the owning section of a
		// sectioned snapshot.
		return 0, fmt.Errorf("%w: %v", ErrCorruptStream, err)
	}
	return addr, nil
}

// restoreBlock consumes one block record: resolves or allocates the block,
// then fills its contents through the type-specific restoring plan.
func (r *Restorer) restoreBlock(id msr.BlockID) error {
	tIdx, err := r.dec.Uint32()
	if err != nil {
		return fmt.Errorf("%w: truncated record for block %s", ErrCorruptStream, id)
	}
	count, err := r.dec.Uint32()
	if err != nil {
		return fmt.Errorf("%w: truncated record for block %s", ErrCorruptStream, id)
	}
	ty, err := r.ti.At(int(tIdx))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptStream, err)
	}

	var start time.Time
	if r.Instrument {
		start = time.Now()
	}
	b, ok := r.table.ByID(id)
	switch {
	case ok:
		// A variable block laid out during execution-state
		// reconstruction. Its shape must agree with the stream.
		if b.Type != ty || b.Count != int(count) {
			return fmt.Errorf("%w: block %s shape mismatch: stream %s x%d, destination %s x%d",
				ErrMismatch, id, ty, count, b.Type, b.Count)
		}
	case id.Seg == memory.Heap:
		b, err = r.allocHeapBlock(id, ty, int(count))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: stream references unknown %s block %s", ErrMismatch, id.Seg, id)
	}
	if r.Instrument {
		r.Stats.UpdateTime += time.Since(start)
	}
	r.Stats.Blocks++
	return r.fillContents(b)
}

// fillContents decodes a block's content through its restoring plan.
func (r *Restorer) fillContents(b *msr.Block) error {
	plan := r.ti.Plan(b.Type, r.mach)
	for elem := 0; elem < b.Count; elem++ {
		if err := r.restoreOps(plan.Ops, b.Addr+memory.Address(elem*plan.Size)); err != nil {
			return fmt.Errorf("collect: restoring block %s element %d: %w", b.ID, elem, err)
		}
	}
	return nil
}

// allocHeapBlock allocates and registers one heap block arriving in a
// stream. Before trusting the declared element count it checks the
// stream actually holds at least the minimum encoding of that many
// elements, so a forged count cannot force a huge allocation from a
// small input.
func (r *Restorer) allocHeapBlock(id msr.BlockID, ty *types.Type, count int) (*msr.Block, error) {
	// A zero-size type (void) has no plan, so it is refused before the
	// plan lookup.
	if es := ty.SizeOf(r.mach); count <= 0 || es <= 0 {
		return nil, fmt.Errorf("%w: heap block %s declares %d elements of %d bytes",
			ErrCorruptStream, id, count, es)
	}
	plan := r.ti.Plan(ty, r.mach)
	per := wireMinPerElem(plan.Ops)
	if per < 1 {
		per = 1
	}
	if int64(count)*int64(per) > int64(r.dec.Remaining()) {
		return nil, fmt.Errorf("%w: heap block %s declares %d elements but only %d bytes remain",
			ErrCorruptStream, id, count, r.dec.Remaining())
	}
	addr, err := r.space.Malloc(count * plan.Size)
	if err != nil {
		return nil, err
	}
	b := &msr.Block{ID: id, Addr: addr, Type: ty, Count: count}
	if err := r.table.Register(b); err != nil {
		return nil, err
	}
	r.table.RestoreFloor(id)
	r.Stats.Allocated++
	return b, nil
}

// wireMinPerElem returns the minimum wire bytes one element of a plan can
// occupy (pointers count their 4-byte null form).
func wireMinPerElem(ops []types.PlanOp) int {
	n := 0
	for _, op := range ops {
		switch {
		case op.Sub != nil:
			n += op.Count * wireMinPerElem(op.Sub)
		case op.Kind == arch.Ptr:
			n += op.Count * 4
		default:
			n += op.Count * wireSize(op.Kind)
		}
	}
	return n
}

// restoreOps mirrors Saver.saveOps.
func (r *Restorer) restoreOps(ops []types.PlanOp, base memory.Address) error {
	for _, op := range ops {
		switch {
		case op.Sub != nil:
			for i := 0; i < op.Count; i++ {
				if err := r.restoreOps(op.Sub, base+memory.Address(op.Off+i*op.Stride)); err != nil {
					return err
				}
			}
		case op.Kind == arch.Ptr:
			for i := 0; i < op.Count; i++ {
				val, err := r.restorePointerValue()
				if err != nil {
					return err
				}
				if err := r.space.StorePtr(base+memory.Address(op.Off+i*op.Stride), val); err != nil {
					return err
				}
			}
		default:
			if err := r.restoreRun(op, base); err != nil {
				return err
			}
		}
	}
	return nil
}

// restoreRun mirrors Saver.saveRun: canonical wire scalars are converted to
// the destination machine representation and copied into place.
func (r *Restorer) restoreRun(op types.PlanOp, base memory.Address) error {
	var start time.Time
	if r.Instrument {
		start = time.Now()
	}
	n, err := decodeRun(r.dec, r.space, r.mach, op, base)
	if err != nil {
		return err
	}
	r.Stats.DataBytes += int64(n)
	if r.Instrument {
		r.Stats.DecodeTime += time.Since(start)
	}
	return nil
}

// decodeRun is encodeRun's inverse, shared by the monolithic Restorer
// and the sectioned restorers.
func decodeRun(dec *xdr.Decoder, space *memory.Space, m *arch.Machine, op types.PlanOp, base memory.Address) (int, error) {
	size := m.SizeOf(op.Kind)
	ws := wireSize(op.Kind)
	in, err := dec.Take(ws * op.Count)
	if err != nil {
		return 0, fmt.Errorf("%w: truncated scalar run", ErrCorruptStream)
	}
	if op.Stride == size {
		dst, err := space.Bytes(base+memory.Address(op.Off), size*op.Count)
		if err != nil {
			return 0, err
		}
		for i := 0; i < op.Count; i++ {
			v := getBE(in[i*ws:i*ws+ws], ws)
			m.PutPrim(dst[i*size:], op.Kind, v)
		}
	} else {
		for i := 0; i < op.Count; i++ {
			dst, err := space.Bytes(base+memory.Address(op.Off+i*op.Stride), size)
			if err != nil {
				return 0, err
			}
			m.PutPrim(dst, op.Kind, getBE(in[i*ws:i*ws+ws], ws))
		}
	}
	return ws * op.Count, nil
}
