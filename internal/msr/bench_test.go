package msr

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
)

// buildTable registers n heap blocks and returns the table plus their
// base addresses.
func buildTable(b *testing.B, n int, useIndex bool) (*Table, []memory.Address, *arch.Machine) {
	b.Helper()
	m := arch.Ultra5
	sp := memory.NewSpace(m)
	tbl := NewTable()
	tbl.UseBaseIndex = useIndex
	addrs := make([]memory.Address, n)
	for i := 0; i < n; i++ {
		a, err := sp.Malloc(24)
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = a
		if err := tbl.Register(&Block{ID: tbl.NextHeapID(), Addr: a, Type: types.Double, Count: 3}); err != nil {
			b.Fatal(err)
		}
	}
	return tbl, addrs, m
}

func benchLookup(b *testing.B, n int, useIndex bool, interior bool) {
	tbl, addrs, m := buildTable(b, n, useIndex)
	off := memory.Address(0)
	if interior {
		off = 8
	}
	esz := func(ty *types.Type) int { return ty.SizeOf(m) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tbl.Lookup(addrs[i%n]+off, esz); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupBinarySearch1k(b *testing.B)   { benchLookup(b, 1000, false, false) }
func BenchmarkLookupBinarySearch100k(b *testing.B) { benchLookup(b, 100000, false, false) }
func BenchmarkLookupHashIndex1k(b *testing.B)      { benchLookup(b, 1000, true, false) }
func BenchmarkLookupHashIndex100k(b *testing.B)    { benchLookup(b, 100000, true, false) }
func BenchmarkLookupInterior100k(b *testing.B)     { benchLookup(b, 100000, true, true) }

func BenchmarkRegisterUnregister(b *testing.B) {
	m := arch.Ultra5
	sp := memory.NewSpace(m)
	tbl := NewTable()
	a, _ := sp.Malloc(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := &Block{ID: tbl.NextHeapID(), Addr: a, Type: types.Double, Count: 3}
		if err := tbl.Register(blk); err != nil {
			b.Fatal(err)
		}
		if err := tbl.Unregister(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolve(b *testing.B) {
	tbl, addrs, m := buildTable(b, 10000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Resolve(tbl, m, addrs[i%len(addrs)]+16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveParallel translates pointers into a heap of linked-list
// nodes from all procs at once, in both directions: the per-pointer work
// of parallel section encoders (ResolveStats) and restore fills
// (AddrOfStats). Each worker keeps its own counters, as they do. Neither
// direction may allocate.
func BenchmarkResolveParallel(b *testing.B) {
	m := arch.SPARC20
	node := types.NewStruct("node")
	node.DefineFields([]types.Field{
		{Name: "v", Type: types.Int},
		{Name: "w", Type: types.Double},
		{Name: "next", Type: types.PointerTo(node)},
	})
	sp := memory.NewSpace(m)
	tbl := NewTable()
	const n = 4096
	addrs := make([]memory.Address, n)
	for i := range addrs {
		count := 1 + i%3
		a, err := sp.Malloc(count * node.SizeOf(m))
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.Register(&Block{ID: tbl.NextHeapID(), Addr: a, Type: node, Count: count}); err != nil {
			b.Fatal(err)
		}
		// Alternate base pointers with pointers to a later element's
		// next field.
		addrs[i] = a
		if i%2 == 1 {
			addrs[i] += memory.Address((count-1)*node.SizeOf(m) + node.OffsetOf(m, 2))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var st Stats
		i := 0
		for pb.Next() {
			addr := addrs[i%n]
			ref, err := ResolveStats(tbl, m, addr, &st)
			if err != nil {
				b.Fatal(err)
			}
			back, err := AddrOfStats(tbl, m, ref, &st)
			if err != nil || back != addr {
				b.Fatalf("%#x resolved to %s and back to %#x (%v)", uint64(addr), ref, uint64(back), err)
			}
			i++
		}
	})
}
