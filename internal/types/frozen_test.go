package types_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/types"
	"repro/internal/workload"
)

// This file checks the frozen type layer: geometry and plans read without
// locks from many goroutines must equal a serially computed reference,
// and a frozen TI table must refuse registration loudly.

// workloadSources are small instances of the programs the migration
// experiments run; between them they cover scalars, pointers, nested
// arrays, structs with padding, and arrays of structs and of pointers.
func workloadSources() map[string]string {
	return map[string]string{
		"pointer": workload.TestPointerSource(3),
		"linpack": workload.LinpackSource(12, true),
		"bitonic": workload.BitonicSource(32, 1),
		"shards":  workload.MutatingShardsSource(4, 8, 2),
		"rate":    workload.WriteRateSource(4, 8, 1, 2),
		"random":  workload.RandomProgram(7),
	}
}

// compileAll compiles every workload source afresh: struct types are
// nominal, so each call yields types with no geometry computed yet.
func compileAll(t *testing.T) map[string]*minic.Program {
	t.Helper()
	out := map[string]*minic.Program{}
	for name, src := range workloadSources() {
		prog, err := minic.Compile(src, minic.PollPolicy{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = prog
	}
	return out
}

// refScalar is one scalar of a flattened type: its byte range on a
// machine.
type refScalar struct{ off, size int }

// refGeom is the geometry of a type on one machine, computed directly
// from the C layout rules without any of the package's caches.
type refGeom struct {
	size, align int
	offsets     []int
	scalars     []refScalar // in ordinal order
}

func refLayout(t *types.Type, m *arch.Machine) refGeom {
	switch t.Kind {
	case types.KPrim:
		if t.Prim == arch.Void {
			return refGeom{size: 0, align: 1}
		}
		s := m.SizeOf(t.Prim)
		return refGeom{size: s, align: m.AlignOf(t.Prim), scalars: []refScalar{{0, s}}}
	case types.KPointer:
		s := m.PtrSize()
		return refGeom{size: s, align: m.AlignOf(arch.Ptr), scalars: []refScalar{{0, s}}}
	case types.KArray:
		el := refLayout(t.Elem, m)
		g := refGeom{size: el.size * t.Len, align: el.align}
		for i := 0; i < t.Len; i++ {
			for _, sc := range el.scalars {
				g.scalars = append(g.scalars, refScalar{i*el.size + sc.off, sc.size})
			}
		}
		return g
	case types.KStruct:
		g := refGeom{align: 1}
		off := 0
		for _, f := range t.Fields {
			fl := refLayout(f.Type, m)
			off = (off + fl.align - 1) / fl.align * fl.align
			g.offsets = append(g.offsets, off)
			for _, sc := range fl.scalars {
				g.scalars = append(g.scalars, refScalar{off + sc.off, sc.size})
			}
			off += fl.size
			if fl.align > g.align {
				g.align = fl.align
			}
		}
		g.size = (off + g.align - 1) / g.align * g.align
		return g
	}
	return refGeom{size: 0, align: 1}
}

// ordinalAt is the reference OffsetToOrdinal: the scalar whose bytes
// contain off, the scalar count for one past the end, and false inside
// padding.
func (g refGeom) ordinalAt(off int) (int, bool) {
	if off == g.size {
		return len(g.scalars), true
	}
	for i, sc := range g.scalars {
		if off >= sc.off && off < sc.off+sc.size {
			return i, true
		}
	}
	return 0, false
}

// maxProbe bounds the byte offsets probed per type, so a large array
// checks its leading elements and its end rather than every byte.
const maxProbe = 96

// observation is everything one goroutine reads for one type on one
// machine.
type observation struct {
	size, align, scalars int
	offsets              []int
	ordinals             []int // OffsetToOrdinal over the probed offsets; -1 = padding
	offsetsOf            []int // OrdinalToOffset over the probed ordinals
	plan                 *types.Plan
}

func probeOffsets(size int) []int {
	var offs []int
	for off := 0; off <= size && off < maxProbe; off++ {
		offs = append(offs, off)
	}
	return append(offs, size)
}

func observe(ti *types.TI, ty *types.Type, m *arch.Machine) observation {
	o := observation{size: ty.SizeOf(m), align: ty.AlignOf(m), scalars: ty.ScalarCount()}
	if ty.Kind == types.KStruct {
		for i := range ty.Fields {
			o.offsets = append(o.offsets, ty.OffsetOf(m, i))
		}
	}
	for _, off := range probeOffsets(o.size) {
		ord, ok := ty.OffsetToOrdinal(m, off)
		if !ok {
			ord = -1
		}
		o.ordinals = append(o.ordinals, ord)
	}
	for _, ord := range probeOffsets(o.scalars) {
		o.offsetsOf = append(o.offsetsOf, ty.OrdinalToOffset(m, ord))
	}
	if o.size > 0 {
		o.plan = ti.Plan(ty, m)
	}
	return o
}

// expected builds the reference observation (plan aside) for a type.
func expected(ty *types.Type, m *arch.Machine) observation {
	g := refLayout(ty, m)
	o := observation{size: g.size, align: g.align, scalars: len(g.scalars), offsets: g.offsets}
	for _, off := range probeOffsets(g.size) {
		ord, ok := g.ordinalAt(off)
		if !ok {
			ord = -1
		}
		o.ordinals = append(o.ordinals, ord)
	}
	for _, ord := range probeOffsets(len(g.scalars)) {
		if ord == len(g.scalars) {
			o.offsetsOf = append(o.offsetsOf, g.size)
		} else {
			o.offsetsOf = append(o.offsetsOf, g.scalars[ord].off)
		}
	}
	return o
}

// TestFrozenGeometryConcurrent has goroutines race to compute and read
// the geometry and plans of every TI type of the workload programs on
// every registered machine, plus one machine built outside the registry
// whose geometry nothing has published yet. Run under -race, this covers
// the lock-free read paths and the first-computation slow path together.
func TestFrozenGeometryConcurrent(t *testing.T) {
	const workers = 8
	progs := compileAll(t)
	machines := append(arch.Machines(),
		arch.NewMachine("unregistered", "test", arch.BigEndian, 8, 8, 8, 4))

	type job struct {
		prog string
		ti   *types.TI
		ty   *types.Type
		m    *arch.Machine
	}
	var jobs []job
	for name, prog := range progs {
		for _, ty := range prog.TI.Types() {
			for _, m := range machines {
				jobs = append(jobs, job{name, prog.TI, ty, m})
			}
		}
	}

	got := make([][]observation, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			obs := make([]observation, len(jobs))
			// Half the workers walk the jobs backwards, so first
			// computations collide from both ends.
			for k := range jobs {
				i := k
				if w%2 == 1 {
					i = len(jobs) - 1 - k
				}
				obs[i] = observe(jobs[i].ti, jobs[i].ty, jobs[i].m)
			}
			got[w] = obs
		}(w)
	}
	close(start)
	wg.Wait()

	for i, j := range jobs {
		want := expected(j.ty, j.m)
		for w := 0; w < workers; w++ {
			o := got[w][i]
			plan := o.plan
			o.plan = nil
			if !reflect.DeepEqual(o, want) {
				t.Fatalf("%s: %s on %s, worker %d:\n got %+v\nwant %+v", j.prog, j.ty, j.m.Name, w, o, want)
			}
			if want.size == 0 {
				continue
			}
			if plan != got[0][i].plan {
				t.Fatalf("%s: %s on %s: workers got different plan instances", j.prog, j.ty, j.m.Name)
			}
			if plan.Size != want.size || plan.NumScalars != want.scalars || plan.Type != j.ty || plan.Mach != j.m {
				t.Fatalf("%s: %s on %s: plan geometry %d bytes / %d scalars, want %d / %d",
					j.prog, j.ty, j.m.Name, plan.Size, plan.NumScalars, want.size, want.scalars)
			}
		}
		if want.size == 0 {
			continue
		}
		ref := types.NewPlan(j.ty, j.m)
		if p := got[0][i].plan; !reflect.DeepEqual(p.Ops, ref.Ops) || p.HasPtr != ref.HasPtr {
			t.Fatalf("%s: %s on %s: cached plan differs from a fresh compilation", j.prog, j.ty, j.m.Name)
		}
	}
}

// TestAddAfterFreezePanics checks that a compiled program's table is
// frozen: Add panics, even for a type already registered, and attempts
// racing with readers leave the readers' view intact.
func TestAddAfterFreezePanics(t *testing.T) {
	prog, err := minic.Compile(workloadSources()["shards"], minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ti := prog.TI
	n := ti.Len()
	digest := ti.Digest()

	addPanics := func(ty *types.Type) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		ti.Add(ty)
		return false
	}
	registered, _ := ti.At(0)
	for _, ty := range []*types.Type{registered, types.ArrayOf(types.Double, 3), types.NewStruct("late")} {
		if !addPanics(ty) {
			t.Errorf("Add(%s) after freeze did not panic", ty)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				if w == 0 {
					addPanics(types.PointerTo(types.Long))
					continue
				}
				for i := 0; i < ti.Len(); i++ {
					ty, err := ti.At(i)
					if err != nil {
						t.Error(err)
						return
					}
					if j, ok := ti.Index(ty); !ok || j != i {
						t.Errorf("Index(%s) = %d, %v; want %d", ty, j, ok, i)
						return
					}
					if ty.SizeOf(arch.SPARC20) > 0 {
						ti.Plan(ty, arch.SPARC20)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if ti.Len() != n || ti.Digest() != digest {
		t.Errorf("frozen table changed: %d types (digest %08x), want %d (%08x)", ti.Len(), ti.Digest(), n, digest)
	}
}

// TestFirstPlanFreezesHandBuiltTable checks the freeze of a table that
// never went through the compiler: plan tables are sized by the type
// list, so the first Plan ends registration.
func TestFirstPlanFreezesHandBuiltTable(t *testing.T) {
	ti := types.NewTI()
	ti.Add(types.ArrayOf(types.Int, 4))
	ti.Plan(types.Int, arch.Alpha)
	defer func() {
		if recover() == nil {
			t.Error("Add after the first Plan did not panic")
		}
	}()
	ti.Add(types.Double)
}

// BenchmarkPlanLookupParallel measures the plan lookup every block of a
// collection or restoration performs, from all procs at once. It must
// not allocate.
func BenchmarkPlanLookupParallel(b *testing.B) {
	prog, err := minic.Compile(workloadSources()["pointer"], minic.PollPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	var tys []*types.Type
	for _, ty := range prog.TI.Types() {
		if ty.SizeOf(arch.Ultra5) > 0 {
			tys = append(tys, ty)
			prog.TI.Plan(ty, arch.Ultra5)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ty := tys[i%len(tys)]
			if p := prog.TI.Plan(ty, arch.Ultra5); p.Size != ty.SizeOf(arch.Ultra5) {
				b.Fatalf("plan size %d for %s", p.Size, ty)
			}
			i++
		}
	})
}
