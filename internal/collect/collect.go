// Package collect implements the MSR Manipulation (MSRM) library of the
// paper: the data collection and restoration mechanisms that transfer the
// memory state of a process in a machine-independent format.
//
// The four interface routines of the paper are provided:
//
//   - Saver.SaveVariable / Saver.SavePointer collect live data on the
//     source machine, encoding memory blocks into an output buffer;
//   - Restorer.RestoreVariable / Restorer.RestorePointer rebuild the
//     blocks in the memory space of the destination process.
//
// SavePointer initiates a depth-first traversal through the connected
// component of the MSR graph reachable from the pointer. Visited memory
// blocks are marked so they are not saved again, which both bounds the
// stream size and preserves sharing: a block referenced from five places is
// transferred once and all five restored pointers alias it, and cyclic
// structures terminate.
//
// # Wire format
//
// The stream is a sequence of pointer references, each optionally followed
// by the record of the block it refers to:
//
//	ref      = null | (segment, major, minor, ordinal)   ; 4 or 16 bytes
//	record   = typeIndex, count, content                 ; follows the first
//	                                                     ; ref to each block
//	content  = scalars in plan order; pointer scalars are refs (recursion)
//
// Scalars are encoded big-endian at canonical widths (char 1, short 2,
// int/float 4, long/double 8) regardless of the machine's own widths, so an
// ILP32 and an LP64 process exchange identical streams. Whether a record
// follows a ref is determined by the visited-set discipline, which encoder
// and decoder evolve in lockstep.
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

// nullSeg is the wire segment value encoding a null pointer.
const nullSeg = 0xffffffff

// wireSize returns the canonical (machine-independent) encoded width of a
// non-pointer scalar kind.
func wireSize(k arch.PrimKind) int {
	switch k {
	case arch.Char, arch.UChar:
		return 1
	case arch.Short, arch.UShort:
		return 2
	case arch.Int, arch.UInt, arch.Float:
		return 4
	case arch.Long, arch.ULong, arch.LongLong, arch.ULongLong, arch.Double:
		return 8
	}
	panic(fmt.Sprintf("collect: no wire size for %s", k))
}

func putBE(b []byte, v uint64, n int) {
	for i := 0; i < n; i++ {
		b[n-1-i] = byte(v >> (8 * i))
	}
}

func getBE(b []byte, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// SaveStats decomposes the cost of a collection in the terms of the
// paper's Section 4.2: Collect = MSRLT_search + Encode_and_Copy.
type SaveStats struct {
	// SearchTime is time spent translating pointer values through the
	// MSRLT (only accumulated when the Saver is instrumented).
	SearchTime time.Duration
	// EncodeTime is time spent converting and copying block contents
	// (only accumulated when instrumented).
	EncodeTime time.Duration
	// Searches and SearchSteps mirror the MSRLT counters for this
	// collection.
	Searches    int64
	SearchSteps int64
	// Blocks is the number of memory blocks saved.
	Blocks int64
	// Pointers is the number of pointer scalars encoded (including null).
	Pointers int64
	// NullPointers counts the null subset.
	NullPointers int64
	// DataBytes is the number of content bytes encoded (excluding refs).
	DataBytes int64
}

// Saver collects live data from a process memory space into an output
// buffer. A Saver is single-use: create one per migration event.
type Saver struct {
	space *memory.Space
	table *msr.Table
	ti    *types.TI
	mach  *arch.Machine
	enc   *xdr.Encoder

	visited map[msr.BlockID]bool

	// Instrument enables the fine-grained timing split in Stats at a
	// small per-operation cost.
	Instrument bool

	// NoDedup disables the visited-set marking (an ablation of the
	// paper's "visited memory blocks are marked so that they are not
	// saved again"): every pointer re-collects its target, so shared
	// blocks are duplicated and the stream for a DAG can grow
	// exponentially. DedupDepthLimit bounds the recursion so the
	// ablation terminates even on cycles; reaching the limit is an
	// error. Measurement only — the resulting stream is not restorable.
	NoDedup bool
	// DedupDepthLimit is the traversal depth bound under NoDedup
	// (default 64 when NoDedup is set).
	DedupDepthLimit int

	depth int

	Stats SaveStats

	baseSearches    int64
	baseSearchSteps int64
}

// NewSaver returns a Saver over the process state (space, MSRLT, TI table)
// writing to enc.
func NewSaver(space *memory.Space, table *msr.Table, ti *types.TI, enc *xdr.Encoder) *Saver {
	return &Saver{
		space:           space,
		table:           table,
		ti:              ti,
		mach:            space.Machine(),
		enc:             enc,
		visited:         make(map[msr.BlockID]bool),
		baseSearches:    table.Stats.Searches,
		baseSearchSteps: table.Stats.SearchSteps,
	}
}

// Encoder returns the output buffer the Saver writes to.
func (s *Saver) Encoder() *xdr.Encoder { return s.enc }

// SaveVariable collects the memory block containing the variable at addr.
// This is the routine the inserted migration macros call for each live
// variable (the paper's Save_variable(&x)); pointer-typed variables are
// handled uniformly because the block's saving function encodes any pointer
// scalars it contains, continuing the traversal.
func (s *Saver) SaveVariable(addr memory.Address) error {
	if addr == 0 {
		return fmt.Errorf("collect: SaveVariable of null address")
	}
	return s.savePointerValue(addr)
}

// SavePointer collects the pointer value p (the paper's Save_pointer(p)):
// it encodes the machine-independent form of p and, if the referenced block
// has not been visited, performs the depth-first collection of the
// connected component reachable from it.
func (s *Saver) SavePointer(p memory.Address) error {
	return s.savePointerValue(p)
}

// Finish finalizes the collection, folding the MSRLT counters into Stats.
func (s *Saver) Finish() {
	s.Stats.Searches = s.table.Stats.Searches - s.baseSearches
	s.Stats.SearchSteps = s.table.Stats.SearchSteps - s.baseSearchSteps
}

// savePointerValue encodes one pointer value and recurses into the target
// block when it is first reached.
func (s *Saver) savePointerValue(p memory.Address) error {
	s.Stats.Pointers++
	if p == 0 {
		s.Stats.NullPointers++
		s.enc.PutUint32(nullSeg)
		return nil
	}
	var start time.Time
	if s.Instrument {
		start = time.Now()
	}
	ref, err := msr.Resolve(s.table, s.mach, p)
	if s.Instrument {
		s.Stats.SearchTime += time.Since(start)
	}
	if err != nil {
		return fmt.Errorf("collect: unresolvable pointer %#x: %w", uint64(p), err)
	}
	s.enc.Put4Uint32(uint32(ref.ID.Seg), ref.ID.Major, ref.ID.Minor, uint32(ref.Ordinal))
	if s.NoDedup {
		limit := s.DedupDepthLimit
		if limit <= 0 {
			limit = 64
		}
		if s.depth >= limit {
			return fmt.Errorf("collect: traversal depth %d exceeded without visit marking (cycle or deep sharing)", limit)
		}
		s.depth++
		b, _ := s.table.ByID(ref.ID)
		err := s.saveBlock(b)
		s.depth--
		return err
	}
	if s.visited[ref.ID] {
		return nil
	}
	s.visited[ref.ID] = true
	b, _ := s.table.ByID(ref.ID)
	return s.saveBlock(b)
}

// saveBlock emits the record of one memory block: its type, element count,
// and contents translated by the type-specific saving plan.
func (s *Saver) saveBlock(b *msr.Block) error {
	ti, ok := s.ti.Index(b.Type)
	if !ok {
		return fmt.Errorf("collect: block %s has type %s not in TI table", b.ID, b.Type)
	}
	s.Stats.Blocks++
	s.enc.PutUint32(uint32(ti))
	s.enc.PutUint32(uint32(b.Count))
	plan := s.ti.Plan(b.Type, s.mach)
	for elem := 0; elem < b.Count; elem++ {
		if err := s.saveOps(plan.Ops, b.Addr+memory.Address(elem*plan.Size)); err != nil {
			return fmt.Errorf("collect: block %s element %d: %w", b.ID, elem, err)
		}
	}
	return nil
}

// saveOps executes plan operations at the given base address.
func (s *Saver) saveOps(ops []types.PlanOp, base memory.Address) error {
	for _, op := range ops {
		switch {
		case op.Sub != nil:
			for i := 0; i < op.Count; i++ {
				if err := s.saveOps(op.Sub, base+memory.Address(op.Off+i*op.Stride)); err != nil {
					return err
				}
			}
		case op.Kind == arch.Ptr:
			for i := 0; i < op.Count; i++ {
				addr := base + memory.Address(op.Off+i*op.Stride)
				val, err := s.space.LoadPtr(addr)
				if err != nil {
					return err
				}
				if err := s.savePointerValue(val); err != nil {
					return err
				}
			}
		default:
			if err := s.saveRun(op, base); err != nil {
				return err
			}
		}
	}
	return nil
}

// saveRun encodes a run of homogeneous non-pointer scalars, converting each
// from the machine representation to the canonical wire representation.
func (s *Saver) saveRun(op types.PlanOp, base memory.Address) error {
	var start time.Time
	if s.Instrument {
		start = time.Now()
	}
	n, err := encodeRun(s.enc, s.space, s.mach, op, base)
	if err != nil {
		return err
	}
	s.Stats.DataBytes += int64(n)
	if s.Instrument {
		s.Stats.EncodeTime += time.Since(start)
	}
	return nil
}

// encodeRun is the run encoder shared by the monolithic Saver and the
// sectioned encoders: it writes one plan op's worth of non-pointer
// scalars in canonical big-endian wire form and returns the byte count.
// It reads memory and the type plan only, so concurrent encoders may run
// it against the same space as long as each has its own encoder.
func encodeRun(enc *xdr.Encoder, space *memory.Space, m *arch.Machine, op types.PlanOp, base memory.Address) (int, error) {
	size := m.SizeOf(op.Kind)
	ws := wireSize(op.Kind)
	// When the encoder streams to a sink, bound each reservation so one
	// large run (a linpack matrix) still flushes out in chunk-sized
	// pieces instead of a single unsplittable Grow.
	seg := op.Count
	if hint := enc.SegmentHint(); hint > 0 {
		if max := hint / ws; max >= 1 && seg > max {
			seg = max
		}
	}
	if op.Stride == size {
		// Contiguous run: one bounds check for the whole span.
		src, err := space.Bytes(base+memory.Address(op.Off), size*op.Count)
		if err != nil {
			return 0, err
		}
		for done := 0; done < op.Count; done += seg {
			n := op.Count - done
			if n > seg {
				n = seg
			}
			out := enc.Grow(ws * n)
			for i := 0; i < n; i++ {
				v := m.Prim(src[(done+i)*size:], op.Kind)
				putBE(out[i*ws:], v, ws)
			}
		}
	} else {
		for done := 0; done < op.Count; done += seg {
			n := op.Count - done
			if n > seg {
				n = seg
			}
			out := enc.Grow(ws * n)
			for i := 0; i < n; i++ {
				src, err := space.Bytes(base+memory.Address(op.Off+(done+i)*op.Stride), size)
				if err != nil {
					return 0, err
				}
				v := m.Prim(src, op.Kind)
				putBE(out[i*ws:], v, ws)
			}
		}
	}
	return ws * op.Count, nil
}
