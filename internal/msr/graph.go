package msr

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
)

// This file materializes the MSR graph G = (V, E) from a memory snapshot.
// The collection algorithm itself never builds the explicit graph — it
// traverses implicitly — but the explicit form supports verification
// (comparing graphs before and after migration), analysis, and the
// illustrative traces of the paper's Section 3.2.

// Edge is a pointer relationship: the scalar at ordinal FromOrdinal of
// block From holds a pointer to ordinal ToOrdinal of block To.
type Edge struct {
	From        BlockID
	FromOrdinal int
	To          BlockID
	ToOrdinal   int
}

// Graph is an explicit MSR snapshot.
type Graph struct {
	Vertices []*Block
	Edges    []Edge

	index map[BlockID]int
}

// Space is the subset of the memory space the graph builder needs.
// *memory.Space satisfies it.
type Space interface {
	Machine() *arch.Machine
	Bytes(addr memory.Address, n int) ([]byte, error)
}

// BuildGraph scans every registered block for pointer scalars and resolves
// them into edges. Dangling pointers (values that resolve to no block) are
// reported as errors: the MSR model requires every edge to land in V.
func BuildGraph(sp Space, t *Table, ti *types.TI) (*Graph, error) {
	m := sp.Machine()
	g := &Graph{index: make(map[BlockID]int)}
	for _, b := range t.Blocks() {
		g.index[b.ID] = len(g.Vertices)
		g.Vertices = append(g.Vertices, b)
	}
	for _, b := range t.Blocks() {
		plan := ti.Plan(b.Type, m)
		if !plan.HasPtr {
			continue
		}
		for elem := 0; elem < b.Count; elem++ {
			base := b.Addr + memory.Address(elem*plan.Size)
			if err := scanOps(sp, t, m, plan.Ops, base, b, elem*plan.NumScalars, g); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// scanOps walks plan operations at the given base address, appending an
// edge for every non-null pointer scalar. ordBase tracks the ordinal of the
// first scalar covered by ops within the block.
func scanOps(sp Space, t *Table, m *arch.Machine, ops []types.PlanOp, base memory.Address, b *Block, ordBase int, g *Graph) error {
	ord := ordBase
	for _, op := range ops {
		if op.Sub != nil {
			per := countScalars(op.Sub)
			for i := 0; i < op.Count; i++ {
				if err := scanOps(sp, t, m, op.Sub, base+memory.Address(op.Off+i*op.Stride), b, ord, g); err != nil {
					return err
				}
				ord += per
			}
			continue
		}
		if op.Kind != arch.Ptr {
			ord += op.Count
			continue
		}
		for i := 0; i < op.Count; i++ {
			addr := base + memory.Address(op.Off+i*op.Stride)
			raw, err := sp.Bytes(addr, m.PtrSize())
			if err != nil {
				return err
			}
			val := memory.Address(m.Uint(raw, m.PtrSize()))
			if val == 0 {
				ord++
				continue
			}
			ref, err := Resolve(t, m, val)
			if err != nil {
				return fmt.Errorf("msr: dangling pointer %#x in %s scalar %d: %w",
					uint64(val), b.ID, ord, err)
			}
			g.Edges = append(g.Edges, Edge{
				From: b.ID, FromOrdinal: ord,
				To: ref.ID, ToOrdinal: ref.Ordinal,
			})
			ord++
		}
	}
	return nil
}

// countScalars totals the scalar coverage of a plan fragment.
func countScalars(ops []types.PlanOp) int {
	n := 0
	for _, op := range ops {
		if op.Sub != nil {
			n += op.Count * countScalars(op.Sub)
		} else {
			n += op.Count
		}
	}
	return n
}

// Vertex returns the block with the given ID, or nil.
func (g *Graph) Vertex(id BlockID) *Block {
	if i, ok := g.index[id]; ok {
		return g.Vertices[i]
	}
	return nil
}

// OutEdges returns the edges leaving the given block, ordered by source
// ordinal.
func (g *Graph) OutEdges(id BlockID) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.From == id {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FromOrdinal < out[j].FromOrdinal })
	return out
}

// Components returns the weakly connected components of the graph as sets
// of block IDs, each sorted, with components ordered by their smallest ID.
func (g *Graph) Components() [][]BlockID {
	parent := make([]int, len(g.Vertices))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, e := range g.Edges {
		union(g.index[e.From], g.index[e.To])
	}
	groups := map[int][]BlockID{}
	for i, v := range g.Vertices {
		r := find(i)
		groups[r] = append(groups[r], v.ID)
	}
	var comps [][]BlockID
	for _, ids := range groups {
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		comps = append(comps, ids)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0].Less(comps[j][0]) })
	return comps
}

// Reachable returns the set of blocks reachable from the given roots by
// following edges, including the roots themselves.
func (g *Graph) Reachable(roots []BlockID) map[BlockID]bool {
	adj := map[BlockID][]BlockID{}
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	seen := map[BlockID]bool{}
	var stack []BlockID
	for _, r := range roots {
		if g.Vertex(r) != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, to := range adj[id] {
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return seen
}

// GraphStats summarizes a snapshot, the n and ΣDᵢ of the complexity model.
type GraphStats struct {
	Blocks     int
	Edges      int
	Bytes      int // ΣDᵢ on the snapshot machine
	PerSegment map[memory.Segment]int
}

// Stats computes summary statistics for the graph on machine m.
func (g *Graph) Stats(m *arch.Machine) GraphStats {
	s := GraphStats{
		Blocks:     len(g.Vertices),
		Edges:      len(g.Edges),
		PerSegment: map[memory.Segment]int{},
	}
	for _, b := range g.Vertices {
		s.Bytes += b.Count * b.Type.SizeOf(m)
		s.PerSegment[b.ID.Seg]++
	}
	return s
}

// Dot renders the graph in Graphviz format, labelling vertices with their
// variable names (as in the paper's Figure 1(b)).
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph msr {\n  rankdir=LR;\n")
	for _, v := range g.Vertices {
		label := v.ID.String()
		if v.Name != "" {
			label += " (" + v.Name + ")"
		}
		fmt.Fprintf(&b, "  %q [label=%q];\n", v.ID.String(), label)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%d->%d\"];\n",
			e.From.String(), e.To.String(), e.FromOrdinal, e.ToOrdinal)
	}
	b.WriteString("}\n")
	return b.String()
}

// Canonical returns a deterministic textual form of the graph with
// machine-independent vertex and edge descriptions. Two snapshots of the
// same logical state on different machines must canonicalize identically;
// the heterogeneity tests rely on this.
func (g *Graph) Canonical() string {
	verts := make([]string, 0, len(g.Vertices))
	for _, v := range g.Vertices {
		verts = append(verts, fmt.Sprintf("v %s type=%s count=%d name=%s",
			v.ID, v.Type.Signature(), v.Count, v.Name))
	}
	sort.Strings(verts)
	edges := make([]string, 0, len(g.Edges))
	for _, e := range g.Edges {
		edges = append(edges, fmt.Sprintf("e %s+%d -> %s+%d",
			e.From, e.FromOrdinal, e.To, e.ToOrdinal))
	}
	sort.Strings(edges)
	return strings.Join(verts, "\n") + "\n" + strings.Join(edges, "\n") + "\n"
}
