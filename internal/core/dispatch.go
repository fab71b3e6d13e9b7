package core

// Compiled filter dispatch: the filter table lowered into an immutable
// decision tree over discriminating (off, len) fields, built once (at
// CompileScript time, alongside the INIT blob) and shared read-only by
// every engine adopting the program. Per-packet classification descends
// the tree — one field probe per internal node — to a leaf holding the
// small ordered candidate list that could still match, then verifies those
// candidates exactly like the linear scan. First-match priority, masked
// tuples and variable-binding semantics are preserved by construction:
//
//   - Only exact literal tuples (Var < 0, Mask == nil, Len <= 8) are used
//     as tree discriminators. Masked and VAR tuples cannot partition
//     frames by equality, so filters relying on them at the tested field
//     travel down every edge as "residual" candidates.
//   - A leaf's candidate list is the union of the filters keyed along the
//     taken path plus all residuals, kept sorted in table order — a
//     superset of the filters that could match the frame. Verifying them
//     in order with the same tuple matcher the linear scan uses therefore
//     returns exactly the linear winner, and scans a subset of the filters
//     the linear scan would have touched (FiltersScanned monotonicity).
//   - A frame too short to contain a node's field takes the residual edge:
//     every keyed filter would have failed its discriminator tuple anyway.
type Dispatch struct {
	nodes []dispatchNode
	shape DispatchShape
}

// dispatchNode is one tree node. length == 0 marks a leaf (candidates in
// filter-table order); otherwise the node probes Data[off : off+length],
// follows edges[packedValue], and falls back to miss for unkeyed values
// and short frames. miss == -1 means no residual candidates exist.
type dispatchNode struct {
	off, length int
	edges       map[uint64]int32
	miss        int32
	candidates  []int32
}

// DispatchShape summarizes the compiled tree, for tooling
// (Program.DumpDispatch) and degenerate-table diagnostics.
type DispatchShape struct {
	Filters int `json:"filters"`
	// Nodes counts tree nodes (internal + leaves).
	Nodes  int `json:"nodes"`
	Leaves int `json:"leaves"`
	// Depth is the longest root-to-leaf path in internal-node probes.
	Depth int `json:"depth"`
	// MaxFanout is the widest keyed edge set of any internal node.
	MaxFanout int `json:"max_fanout"`
	// MaxLeafCandidates is the longest candidate list any single frame can
	// be verified against.
	MaxLeafCandidates int `json:"max_leaf_candidates"`
	// WorstCaseTuples bounds the tuple comparisons of one classification:
	// the costliest leaf's candidate tuples (field probes are counted
	// separately, in Classifier.NodeTests).
	WorstCaseTuples int `json:"worst_case_tuples"`
}

// Degenerate reports a table the tree could not partition at all: every
// filter ends up in one leaf, so compiled dispatch degrades to the linear
// scan (plus nothing — the root is the leaf). Single-filter tables are
// trivially flat, not degenerate.
func (s DispatchShape) Degenerate() bool {
	return s.Filters > 1 && s.MaxLeafCandidates == s.Filters
}

// Shape returns the tree summary.
func (d *Dispatch) Shape() DispatchShape { return d.shape }

// maxDiscriminatorLen bounds discriminator fields to what packs into a
// uint64 edge key.
const maxDiscriminatorLen = 8

// BuildDispatch compiles a filter table into a dispatch tree. The result
// is immutable and safe for concurrent use by any number of classifiers.
func BuildDispatch(filters []FilterEntry) *Dispatch {
	b := &dispatchBuilder{
		filters: filters,
		// budget caps tree growth on adversarial tables where residual
		// duplication could blow up; within budget the build always makes
		// progress (every child set is strictly smaller).
		budget: 16*len(filters) + 64,
	}
	all := make([]int32, len(filters))
	for i := range all {
		all[i] = int32(i)
	}
	b.build(all)
	d := &Dispatch{nodes: b.nodes}
	d.shape = d.computeShape(filters)
	return d
}

type dispatchBuilder struct {
	filters []FilterEntry
	nodes   []dispatchNode
	budget  int
}

// fieldKey identifies a candidate discriminator field.
type fieldKey struct {
	off, length int
}

// build emits the subtree classifying cands (sorted, ascending) and
// returns its node index.
func (b *dispatchBuilder) build(cands []int32) int32 {
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, dispatchNode{})

	fk, groups, order, residual, ok := b.chooseField(cands)
	if !ok {
		b.nodes[idx] = dispatchNode{candidates: cands}
		return idx
	}

	n := dispatchNode{
		off:    fk.off,
		length: fk.length,
		edges:  make(map[uint64]int32, len(order)),
		miss:   -1,
	}
	// Children are built in ascending key order so node layout (and hence
	// Shape) is deterministic for a given table.
	for _, v := range order {
		n.edges[v] = b.build(mergeSorted(groups[v], residual))
	}
	if len(residual) > 0 {
		n.miss = b.build(residual)
	}
	b.nodes[idx] = n
	return idx
}

// chooseField picks the most discriminating literal field among cands:
// the field keying the most filters, ties broken by more distinct values,
// then lower offset, then shorter length. It returns ok == false when no
// field splits the set (fewer than two distinct values everywhere), when
// the candidate set is already small, or when the node budget is spent.
func (b *dispatchBuilder) chooseField(cands []int32) (fieldKey, map[uint64][]int32, []uint64, []int32, bool) {
	if len(cands) < 2 || len(b.nodes) > b.budget {
		return fieldKey{}, nil, nil, nil, false
	}
	stats := make(map[fieldKey]*fieldStat)
	valueOf := make(map[fieldKey]map[int32]uint64)
	var fieldOrder []fieldKey
	for _, ci := range cands {
		f := &b.filters[ci]
		seen := make(map[fieldKey]bool, len(f.Tuples))
		for ti := range f.Tuples {
			tu := &f.Tuples[ti]
			if tu.Var >= 0 || tu.Mask != nil || tu.Len <= 0 || tu.Len > maxDiscriminatorLen || len(tu.Pattern) != tu.Len {
				continue
			}
			fk := fieldKey{tu.Off, tu.Len}
			if seen[fk] {
				continue // key each filter by its first tuple at a field
			}
			seen[fk] = true
			st := stats[fk]
			if st == nil {
				st = &fieldStat{}
				stats[fk] = st
				valueOf[fk] = make(map[int32]uint64)
				fieldOrder = append(fieldOrder, fk)
			}
			st.keyed++
			valueOf[fk][ci] = packField(tu.Pattern)
		}
	}
	var best fieldKey
	var bestStat fieldStat
	found := false
	for _, fk := range fieldOrder {
		st := *stats[fk]
		st.distinct = countDistinct(valueOf[fk])
		if st.distinct < 2 {
			continue // cannot split: one value's child would equal the parent
		}
		if !found || betterField(fk, st, best, bestStat) {
			best, bestStat, found = fk, st, true
		}
	}
	if !found {
		return fieldKey{}, nil, nil, nil, false
	}
	groups := make(map[uint64][]int32)
	var order []uint64
	var residual []int32
	vals := valueOf[best]
	for _, ci := range cands {
		v, keyed := vals[ci]
		if !keyed {
			residual = append(residual, ci)
			continue
		}
		if _, dup := groups[v]; !dup {
			order = append(order, v)
		}
		groups[v] = append(groups[v], ci)
	}
	sortUint64(order)
	return best, groups, order, residual, true
}

func betterField(fk fieldKey, st fieldStat, best fieldKey, bestStat fieldStat) bool {
	if st.keyed != bestStat.keyed {
		return st.keyed > bestStat.keyed
	}
	if st.distinct != bestStat.distinct {
		return st.distinct > bestStat.distinct
	}
	if fk.off != best.off {
		return fk.off < best.off
	}
	return fk.length < best.length
}

// fieldStat scores one candidate discriminator field.
type fieldStat struct {
	keyed    int
	distinct int
}

func countDistinct(m map[int32]uint64) int {
	seen := make(map[uint64]struct{}, len(m))
	for _, v := range m {
		seen[v] = struct{}{}
	}
	return len(seen)
}

func sortUint64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// mergeSorted merges two ascending candidate lists into a fresh slice.
func mergeSorted(a, c []int32) []int32 {
	if len(c) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(c))
	i, j := 0, 0
	for i < len(a) && j < len(c) {
		if a[i] < c[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, c[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, c[j:]...)
	return out
}

// packField big-endian-packs up to 8 field bytes into an edge key.
func packField(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

func (d *Dispatch) computeShape(filters []FilterEntry) DispatchShape {
	s := DispatchShape{Filters: len(filters), Nodes: len(d.nodes)}
	if len(d.nodes) == 0 {
		return s
	}
	type frame struct {
		node  int32
		depth int
	}
	stack := []frame{{0, 0}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &d.nodes[fr.node]
		if n.length == 0 {
			s.Leaves++
			if fr.depth > s.Depth {
				s.Depth = fr.depth
			}
			if len(n.candidates) > s.MaxLeafCandidates {
				s.MaxLeafCandidates = len(n.candidates)
			}
			tuples := 0
			for _, ci := range n.candidates {
				tuples += len(filters[ci].Tuples)
			}
			if tuples > s.WorstCaseTuples {
				s.WorstCaseTuples = tuples
			}
			continue
		}
		if len(n.edges) > s.MaxFanout {
			s.MaxFanout = len(n.edges)
		}
		for _, ch := range n.edges {
			stack = append(stack, frame{ch, fr.depth + 1})
		}
		if n.miss >= 0 {
			stack = append(stack, frame{n.miss, fr.depth + 1})
		}
	}
	return s
}
