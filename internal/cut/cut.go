// Package cut implements a priority-cut DAG mapper for K-input lookup
// tables — the modern successor to the Chortle paper's fanout-free-tree
// decomposition and the engine that removes its reconvergent-fanout
// blind spot. Instead of splitting the network into trees, it
// enumerates K-feasible cuts per node over the whole DAG (bounded
// priority lists, leaf-subset dominance pruning with bitset
// signatures), ranks them by area flow with exact-area refinement
// passes, and selects a cover from the outputs down. Each selected cut
// becomes one LUT whose truth table is computed over the cut's cone,
// so reconvergent structure (XOR trees, carry chains) collapses into
// single tables that the tree decomposition is forced to spread over
// several.
//
// The mapper is deterministic: identical inputs and options produce a
// byte-identical circuit on every run, with no dependence on map
// iteration order or scheduling.
package cut

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"chortle/internal/cerrs"
	"chortle/internal/lut"
	"chortle/internal/network"
	"chortle/internal/obs"
	"chortle/internal/truth"
)

// Options configures the priority-cut mapper.
type Options struct {
	// K is the lookup table input count; every selected cut has at most
	// K leaves. Range [2, truth.MaxVars].
	K int

	// CutsPerNode bounds the per-node priority list: after dominance
	// pruning, only the CutsPerNode best-ranked non-trivial cuts are
	// kept for consumers to merge. Larger lists explore more covers at
	// more cost. Zero takes the default (8).
	CutsPerNode int

	// AreaRounds is the number of area-recovery passes after the
	// initial area-flow cover: each pass recomputes reference counts
	// from the current cover, re-ranks every priority list under the
	// refined counts, and reselects. Zero takes the default (2);
	// negative disables recovery.
	AreaRounds int

	// Observer, when non-nil, receives phase boundaries, per-LUT detail
	// and the run summary, with the same passivity contract as the tree
	// engine: the emitted circuit is byte-identical with or without it.
	Observer obs.Observer

	// Provenance attaches per-LUT ancestry records to the circuit (see
	// internal/lut): the cut's leaf count as the shape, the covered
	// gates as a first-owner partition of the prepared network's gates,
	// and lut.OriginCut as the origin. Result.Prepared carries the
	// network the records refer to.
	Provenance bool
}

// DefaultOptions returns the default priority-cut configuration for K.
func DefaultOptions(k int) Options {
	return Options{K: k, CutsPerNode: defaultCutsPerNode, AreaRounds: defaultAreaRounds}
}

const (
	defaultCutsPerNode = 8
	defaultAreaRounds  = 2
)

func (o Options) validate() error {
	if o.K < 2 || o.K > truth.MaxVars {
		return fmt.Errorf("cut: K=%d out of range [2,%d]: %w", o.K, truth.MaxVars, cerrs.ErrBadK)
	}
	return nil
}

// cutsPerNode resolves the priority-list bound.
func (o Options) cutsPerNode() int {
	if o.CutsPerNode <= 0 {
		return defaultCutsPerNode
	}
	return o.CutsPerNode
}

// areaRounds resolves the recovery pass count.
func (o Options) areaRounds() int {
	switch {
	case o.AreaRounds == 0:
		return defaultAreaRounds
	case o.AreaRounds < 0:
		return 0
	}
	return o.AreaRounds
}

// Result is the outcome of a priority-cut mapping.
type Result struct {
	// Circuit is the mapped K-LUT circuit.
	Circuit *lut.Circuit
	// LUTs is the circuit area (one per selected cut).
	LUTs int
	// Nodes is the gate count of the binarized subject graph the cuts
	// were enumerated over.
	Nodes int
	// BinarizedGates counts the two-input gates the binarization step
	// added to bound every gate's fanin at two.
	BinarizedGates int
	// Cuts is the total number of cuts retained across all priority
	// lists — the search breadth the bound allowed.
	Cuts int
	// Prepared is the binarized subject graph the provenance records
	// refer to; recorded only when Options.Provenance is set.
	Prepared *network.Network
}

// cutSet is one K-feasible cut: its leaves as sorted node IDs stored
// inline, a 64-bit bloom signature for fast dominance rejection, and
// the ranking the last area pass computed. Cuts are values: a run's
// priority lists live in one arena slice, and candidates are built in
// two reused buffers, so enumeration allocates nothing per cut.
type cutSet struct {
	leaves [truth.MaxVars]int32
	n      int32   // leaf count
	depth  int32   // LUT levels through this cut
	sig    uint64  // bloom mask of the leaves
	flow   float64 // area flow through this cut
}

// leafIDs returns the cut's sorted leaves.
func (c *cutSet) leafIDs() []int32 { return c.leaves[:c.n] }

// trivialCut is the single-leaf cut {id}.
func trivialCut(id int) cutSet {
	c := cutSet{n: 1, sig: 1 << (uint(id) & 63)}
	c.leaves[0] = int32(id)
	return c
}

// subsetOf reports whether a's leaves are all among b's. The signature
// pre-check rejects most non-subsets in one AND.
func (a *cutSet) subsetOf(b *cutSet) bool {
	if a.n > b.n || a.sig&^b.sig != 0 {
		return false
	}
	i := int32(0)
	for _, l := range b.leafIDs() {
		if i < a.n && a.leaves[i] == l {
			i++
		}
	}
	return i == a.n
}

// nodeData is the per-node mapping state, indexed by node ID. A gate's
// non-trivial cuts, best-first, are mapper.arena[first:end].
type nodeData struct {
	first, end int32
	est        float64 // area flow of the best cut
	depth      int32   // depth through the best cut
	refs       float64 // estimated references (>= 1)
}

// mapper carries one run's state. Its slices are allocated once per run
// and reused across nodes, LUTs and area rounds.
type mapper struct {
	opts  Options
	nw    *network.Network
	order []*network.Node // topological, fanins first
	data  []nodeData      // by node ID
	// arena holds every priority list back to back, in enumeration
	// order; cands and spare are the candidate buffers one gate's merge
	// and prioritize work in.
	arena, cands, spare []cutSet
	// selected is the cover in topological order; required flags the
	// gates the cover needs and refCnt tallies references, both by node
	// ID and reused every round.
	selected []*network.Node
	required []bool
	refCnt   []int
	// Emission scratch by node ID: stamp[id] == gen marks a node as
	// visited by the current cone walk or table pass, tabs[id] holds its
	// table; coneBuf and the walk's coneStack are reused for every LUT's
	// cone, pinBuf for its input names (AddLUT copies them).
	stamp     []uint32
	gen       uint32
	tabs      []truth.Table
	coneBuf   []*network.Node
	coneStack []coneFrame
	pinBuf    []string
	// Enumeration tallies for the run-summary events: candidates removed
	// by dominance pruning and non-dominated cuts evicted beyond the
	// priority bound.
	dominated int
	evicted   int64
}

// coneFrame is one gate on walkCone's stack and the index of the next
// fanin it visits.
type coneFrame struct {
	n    *network.Node
	next int
}

// Map runs the priority-cut mapper on the network, which must be valid
// (network.Validate). The input is not modified.
func Map(input *network.Network, opts Options) (*Result, error) {
	return MapCtx(context.Background(), input, opts)
}

// MapCtx is Map under a context: cancellation or deadline expiry makes
// the enumeration return ctx.Err() promptly between nodes. The input
// must be a valid network (network.Validate); core.MapCtx checks that
// once before it picks an engine.
func MapCtx(ctx context.Context, input *network.Network, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := newTracer(opts.Observer)
	tr.MapStart(opts.K, len(input.Nodes))

	endPhase := tr.Phase("prepare")
	nw := input.Clone()
	nw.Sweep()
	added := binarize(nw)
	order, err := nw.TopoSort()
	if err != nil {
		endPhase()
		return nil, err
	}
	m := newMapper(opts, nw, order)
	endPhase()

	endPhase = tr.Phase("cuts")
	err = m.enumerate(ctx)
	endPhase()
	if err != nil {
		return nil, err
	}
	tr.cutsEnumerated(gateCount(nw), int64(len(m.arena)), m.dominated, m.evicted)

	endPhase = tr.Phase("select")
	m.selectCover()
	for round := 0; round < opts.areaRounds(); round++ {
		if err := ctx.Err(); err != nil {
			endPhase()
			return nil, err
		}
		m.recomputeRefs()
		m.rerank()
		m.selectCover()
		tr.areaFlowRound(round+1, len(m.selected))
	}
	endPhase()

	endPhase = tr.Phase("emit")
	ckt, err := m.emit()
	endPhase()
	if err != nil {
		return nil, err
	}
	if err := ckt.Validate(); err != nil {
		return nil, fmt.Errorf("cut: mapped circuit invalid: %w", err)
	}
	tr.Circuit(ckt, len(m.selected))

	res := &Result{
		Circuit:        ckt,
		LUTs:           ckt.Count(),
		Nodes:          gateCount(nw),
		BinarizedGates: added,
		Cuts:           len(m.arena),
	}
	if opts.Provenance {
		res.Prepared = nw
	}
	return res, nil
}

// newMapper sizes one run's state for the prepared network, seeding
// the reference estimates from fanout counts.
func newMapper(opts Options, nw *network.Network, order []*network.Node) *mapper {
	n := len(nw.Nodes)
	m := &mapper{
		opts:  opts,
		nw:    nw,
		order: order,
		data:  make([]nodeData, n),
		// Every gate keeps at most cutsPerNode cuts, so the arena never
		// regrows.
		arena:    make([]cutSet, 0, gateCount(nw)*opts.cutsPerNode()),
		required: make([]bool, n),
		refCnt:   make([]int, n),
		stamp:    make([]uint32, n),
		tabs:     make([]truth.Table, n),
	}
	for id, c := range nw.FanoutCounts() {
		m.data[id].refs = float64(max(c, 1))
	}
	return m
}

func gateCount(nw *network.Network) int {
	n := 0
	for _, nd := range nw.Nodes {
		if !nd.IsInput() {
			n++
		}
	}
	return n
}

// cutsOf returns node id's priority list (empty for inputs).
func (m *mapper) cutsOf(id int) []cutSet {
	d := &m.data[id]
	return m.arena[d.first:d.end]
}

// enumerate builds every gate's priority list in topological order,
// appending it to the (reset) arena. For a gate v with fanins a and b
// the candidates are the pairwise unions of a's and b's cut lists (each
// extended by its trivial cut {a} resp. {b}); candidates wider than K
// are discarded, and prioritize reduces the rest to the best
// cutsPerNode non-dominated cuts, written straight into the arena.
func (m *mapper) enumerate(ctx context.Context) error {
	bound := m.opts.cutsPerNode()
	m.arena = m.arena[:0]
	m.dominated, m.evicted = 0, 0
	for i, v := range m.order {
		if i&127 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if v.IsInput() {
			continue
		}
		cands, spare := m.faninCuts(m.cands[:0], v.Fanins[0].Node), m.spare
		for _, f := range v.Fanins[1:] {
			cands, spare = m.mergeLists(spare[:0], cands, f.Node), cands
		}
		// Every gate keeps at most bound cuts and the arena was sized for
		// that, so the list's slots are already allocated.
		first := len(m.arena)
		list, spare, dominated, evicted := m.prioritize(m.arena[first:first:first+bound], cands, spare)
		m.dominated += dominated
		m.evicted += int64(evicted)
		m.arena = m.arena[:first+len(list)]
		d := &m.data[v.ID]
		d.first, d.end = int32(first), int32(len(m.arena))
		d.est, d.depth = list[0].flow, list[0].depth
		m.cands, m.spare = cands, spare
	}
	return nil
}

// faninCuts appends a fanin's mergeable cut list to dst: its own
// priority list plus its trivial cut {n} (inputs contribute only the
// trivial cut). The trivial cut is what lets a consumer keep n as a LUT
// input.
func (m *mapper) faninCuts(dst []cutSet, n *network.Node) []cutSet {
	dst = append(dst, m.cutsOf(n.ID)...)
	return append(dst, trivialCut(n.ID))
}

// mergeLists appends to dst every union of a cut in as with one of
// fanin b's mergeable cuts that stays within K leaves.
func (m *mapper) mergeLists(dst, as []cutSet, b *network.Node) []cutSet {
	own := m.cutsOf(b.ID)
	triv := trivialCut(b.ID)
	dst = slices.Grow(dst, len(as)*(len(own)+1))
	for i := range as {
		for j := 0; j <= len(own); j++ {
			bc := &triv
			if j < len(own) {
				bc = &own[j]
			}
			if next := dst[:len(dst)+1]; mergeCuts(&next[len(dst)], &as[i], bc, m.opts.K) {
				dst = next
			}
		}
	}
	return dst
}

// mergeCuts writes the union of two sorted leaf sets into dst and
// reports whether it stays within k leaves. The signature union gives a
// cheap lower bound on the merged size before the real merge runs.
func mergeCuts(dst, a, b *cutSet, k int) bool {
	if bits.OnesCount64(a.sig|b.sig) > k {
		return false
	}
	al, bl := a.leafIDs(), b.leafIDs()
	i, j, n := 0, 0, 0
	for i < len(al) && j < len(bl) {
		if n == k {
			return false
		}
		switch {
		case al[i] < bl[j]:
			dst.leaves[n] = al[i]
			i++
		case al[i] > bl[j]:
			dst.leaves[n] = bl[j]
			j++
		default:
			dst.leaves[n] = al[i]
			i++
			j++
		}
		n++
	}
	if n+len(al)-i+len(bl)-j > k {
		return false
	}
	n += copy(dst.leaves[n:], al[i:])
	n += copy(dst.leaves[n:], bl[j:])
	dst.n = int32(n)
	dst.sig = a.sig | b.sig
	return true
}

// prioritize reduces one gate's candidates to its priority list. It
// drops duplicates and every cut whose leaves are a superset of another
// candidate's (the dominated cut can never beat the dominating one on
// area or feasibility), scores the survivors, and keeps the cap(top)
// best of them in top, best-first. buf is scratch, grown as needed and
// returned. It also returns how many candidates were dominated and how
// many survivors did not fit.
//
// The candidates are first laid out in buf by ascending leaf count (one
// counting pass). A cut can only be dominated by a cut with fewer
// leaves or by an identical one, so each candidate need only be checked
// against the survivors before it, and no later candidate can dominate
// a survivor. The survivors are exactly the distinct inclusion-minimal
// leaf sets, whatever order the candidates arrive in.
func (m *mapper) prioritize(top, cands, buf []cutSet) (list, scratch []cutSet, dominated, evicted int) {
	var next [truth.MaxVars + 1]int // next[n]: buf slot of the next n-leaf cut
	for i := range cands {
		next[cands[i].n]++
	}
	sum := 0
	for n, cnt := range next {
		next[n] = sum
		sum += cnt
	}
	buf = slices.Grow(buf[:0], len(cands))[:len(cands)]
	for i := range cands {
		c := &cands[i]
		buf[next[c.n]] = *c
		next[c.n]++
	}

	kept := buf[:0]
	same, n := 0, int32(0) // kept[same:] have n leaves, kept[:same] fewer
	for i := range buf {
		c := &buf[i]
		if c.n != n {
			same, n = len(kept), c.n
		}
		if dominatedBy(kept[:same], c) || duplicateOf(kept[same:], c) {
			dominated++
			continue
		}
		// len(kept) <= i, so this moves c down into the kept prefix.
		kept = append(kept, *c)
		c = &kept[len(kept)-1]
		m.score(c)
		if len(top) == cap(top) {
			evicted++
			if !better(c, &top[len(top)-1]) {
				continue
			}
			top = top[:len(top)-1]
		}
		top = insertCut(top, c)
	}
	return top, buf, dominated, evicted
}

// dominatedBy reports whether one of kept, all smaller than c, has its
// leaves among c's.
func dominatedBy(kept []cutSet, c *cutSet) bool {
	for x := range kept {
		if kept[x].subsetOf(c) {
			return true
		}
	}
	return false
}

// duplicateOf reports whether one of kept, all the size of c, has the
// same leaves as c.
func duplicateOf(kept []cutSet, c *cutSet) bool {
	for x := range kept {
		if kept[x].sig == c.sig && slices.Equal(kept[x].leafIDs(), c.leafIDs()) {
			return true
		}
	}
	return false
}

// insertCut inserts c into the best-first list, which must have room
// for one more cut.
func insertCut(list []cutSet, c *cutSet) []cutSet {
	j := len(list)
	list = list[:j+1]
	for ; j > 0 && better(c, &list[j-1]); j-- {
		list[j] = list[j-1]
	}
	list[j] = *c
	return list
}

// score computes c's area flow and depth from its leaves' current
// estimates. An input leaf adds nothing: enumerate and rerank write
// nodeData only for gates, so an input keeps est 0 and depth 0, and its
// refs is at least 1 like every node's, so est/refs is exactly +0.
func (m *mapper) score(c *cutSet) {
	flow := 1.0
	var depth int32
	for _, l := range c.leafIDs() {
		d := &m.data[l]
		flow += d.est / d.refs
		depth = max(depth, d.depth)
	}
	c.flow = flow
	c.depth = depth + 1
}

// better reports whether a ranks strictly before b: lower area flow,
// then lower depth, then fewer leaves, then lexicographically smaller
// leaf IDs. The order is total on distinct leaf sets, so ranking is
// deterministic whatever order the candidates arrive in. Flows are
// never NaN (every refs is at least 1), so plain comparisons order them.
func better(a, b *cutSet) bool {
	if a.flow != b.flow {
		return a.flow < b.flow
	}
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	if a.n != b.n {
		return a.n < b.n
	}
	for i, l := range a.leafIDs() {
		if l != b.leaves[i] {
			return l < b.leaves[i]
		}
	}
	return false
}

// rerank recomputes every priority list's ranking bottom-up under the
// current reference counts (an area-recovery pass re-sorts the arena
// ranges in place; it does not re-merge). A range holds at most
// cutsPerNode cuts and is mostly still in order, so it is
// insertion-sorted.
func (m *mapper) rerank() {
	for _, v := range m.order {
		if v.IsInput() {
			continue
		}
		cuts := m.cutsOf(v.ID)
		for i := range cuts {
			m.score(&cuts[i])
			if i > 0 && better(&cuts[i], &cuts[i-1]) {
				c := cuts[i]
				insertCut(cuts[:i], &c)
			}
		}
		d := &m.data[v.ID]
		d.est = cuts[0].flow
		d.depth = cuts[0].depth
	}
}

// best returns gate id's best-ranked cut.
func (m *mapper) best(id int) *cutSet {
	return &m.arena[m.data[id].first]
}

// selectCover walks from the outputs down, selecting every required
// gate's best cut and requiring its gate leaves in turn. The result is
// m.selected in topological order.
func (m *mapper) selectCover() {
	required := m.required
	clear(required)
	for _, o := range m.nw.Outputs {
		if !o.Node.IsInput() {
			required[o.Node.ID] = true
		}
	}
	for _, l := range m.nw.Latches {
		if !l.D.IsInput() {
			required[l.D.ID] = true
		}
	}
	m.selected = m.selected[:0]
	for i := len(m.order) - 1; i >= 0; i-- {
		v := m.order[i]
		if v.IsInput() || !required[v.ID] {
			continue
		}
		m.selected = append(m.selected, v)
		for _, l := range m.best(v.ID).leafIDs() {
			if !m.nw.Nodes[l].IsInput() {
				required[l] = true
			}
		}
	}
	slices.Reverse(m.selected)
}

// recomputeRefs replaces the fanout-based reference estimates with the
// current cover's actual reference counts (floored at one), the
// exact-area refinement that steers the next ranking pass toward cuts
// whose logic is already shared.
func (m *mapper) recomputeRefs() {
	cnt := m.refCnt
	clear(cnt)
	for _, v := range m.selected {
		for _, l := range m.best(v.ID).leafIDs() {
			cnt[l]++
		}
	}
	for _, o := range m.nw.Outputs {
		cnt[o.Node.ID]++
	}
	for _, l := range m.nw.Latches {
		cnt[l.D.ID]++
	}
	for id := range m.data {
		m.data[id].refs = float64(max(cnt[id], 1))
	}
}
