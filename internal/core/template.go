package core

import (
	"chortle/internal/lut"
	"chortle/internal/network"
	"chortle/internal/truth"
)

// Emission templates: the reusable half of tree memoization. Once one
// tree of a shape has been reconstructed, the sequence of LUTs it
// emitted — their truth tables, their input wiring, and the order of
// fresh-name draws — is recorded as a template. Every later tree with
// the same shape *and* the same leaf-coincidence pattern replays the
// template: resolve its own leaf signals, draw its own fresh names (in
// the recorded order, so the global name sequence advances exactly as a
// from-scratch reconstruction would), and add the recorded truth tables
// verbatim. Replay skips the DP choice walk and the per-LUT truth-table
// evaluation, yet emits the same bytes as reconstructing the tree from
// its DP would.

// lutSpec is one recorded LUT.
type lutSpec struct {
	// nameRef indexes the template's fresh-name draws; -1 means the name
	// is supplied by the caller (the tree's root LUT, whose name depends
	// on circuit state, not on the shape).
	nameRef int32
	// inputs are signal tokens: tok >= 0 is the tree's leaf edge number
	// tok (preorder); tok < 0 is LUT -(tok+1) emitted earlier in this
	// same template.
	inputs []int32
	table  truth.Table

	// Provenance, recorded only when Options.Provenance is on (shape is
	// then non-empty): the preorder indices of the covered tree nodes,
	// the partially-computed node's index (-1 = none), and the shape
	// string — everything a replayed tree needs to rebuild the record
	// against its own node names.
	covers  []int32
	partIdx int32
	shape   string
}

// emitTemplate is the recorded emission of one (shape, leaf-pattern)
// class of trees.
type emitTemplate struct {
	// freshes lists, in draw order, the preorder index of the tree node
	// whose name seeds each fresh-name draw.
	freshes []int32
	luts    []lutSpec
}

// emitRecorder captures a template while the normal reconstruction path
// runs. Recording is passive: it never changes what is emitted, and a
// recording failure (an input signal that cannot be tokenized) only
// means no template is stored.
type emitRecorder struct {
	sigTok    map[string]int32 // signal -> token
	freshName map[string]int32 // fresh name -> index in freshes
	freshes   []int32
	specs     []lutSpec
	failed    bool
}

func newEmitRecorder() *emitRecorder {
	return &emitRecorder{
		sigTok:    make(map[string]int32),
		freshName: make(map[string]int32),
	}
}

// noteLeaf registers the signal a leaf edge resolved to. The first leaf
// index seen for a signal wins; any leaf index carrying the same signal
// is equivalent under the template's leaf pattern.
func (r *emitRecorder) noteLeaf(sig string, leafIdx int32) {
	if leafIdx < 0 {
		r.failed = true
		return
	}
	if _, ok := r.sigTok[sig]; !ok {
		r.sigTok[sig] = leafIdx
	}
}

// noteFresh registers a fresh-name draw seeded by tree node nodeIdx.
func (r *emitRecorder) noteFresh(name string, nodeIdx int32) {
	r.freshName[name] = int32(len(r.freshes))
	r.freshes = append(r.freshes, nodeIdx)
}

// noteLUT records one emitted LUT and makes its output signal
// addressable by later LUTs of the same tree.
func (r *emitRecorder) noteLUT(name string, inputs []string, table truth.Table) {
	spec := lutSpec{nameRef: -1, table: table, inputs: make([]int32, len(inputs))}
	if i, ok := r.freshName[name]; ok {
		spec.nameRef = i
	}
	for j, s := range inputs {
		tok, ok := r.sigTok[s]
		if !ok {
			r.failed = true
			return
		}
		spec.inputs[j] = tok
	}
	r.specs = append(r.specs, spec)
	r.sigTok[name] = -int32(len(r.specs)) // LUT j-1 -> token -j
}

// noteProv attaches the provenance of the most recently recorded LUT to
// its spec, keyed by preorder node indices so replay can rebind it.
func (r *emitRecorder) noteProv(pf *provFrame, shape string) {
	if r.failed || len(r.specs) == 0 {
		return
	}
	spec := &r.specs[len(r.specs)-1]
	spec.shape = shape
	spec.partIdx = pf.partIdx
	if len(pf.covers) > 0 {
		spec.covers = make([]int32, len(pf.covers))
		for i, c := range pf.covers {
			spec.covers[i] = c.idx
		}
	}
}

// template returns the finished template, or nil if recording failed or
// produced nothing.
func (r *emitRecorder) template() *emitTemplate {
	if r.failed || len(r.specs) == 0 {
		return nil
	}
	return &emitTemplate{freshes: r.freshes, luts: r.specs}
}

// treeNamesAndLeafSigs walks the tree rooted at root in the DP's
// preorder, returning the gate names (indexed by nodeIdx) and the
// resolved signal of every leaf edge (indexed by leafIdx). Both slices
// are the mapper's scratch, valid until the next call.
func (m *mapper) treeNamesAndLeafSigs(root *network.Node) (names []string, sigs []string, err error) {
	m.names, m.leafSigs = m.names[:0], m.leafSigs[:0]
	if err := m.walkTree(root); err != nil {
		return nil, nil, err
	}
	return m.names, m.leafSigs, nil
}

func (m *mapper) walkTree(n *network.Node) error {
	m.names = append(m.names, n.Name)
	for _, e := range n.Fanins {
		if !m.f.IsLeafEdge(e.Node) {
			if err := m.walkTree(e.Node); err != nil {
				return err
			}
			continue
		}
		s, err := m.leafSignal(e.Node)
		if err != nil {
			return err
		}
		m.leafSigs = append(m.leafSigs, s)
	}
	return nil
}

// replayTemplate re-emits a recorded tree for the structurally identical
// tree rooted at root, and registers its root signal.
func (m *mapper) replayTemplate(root *network.Node, t *emitTemplate, names []string, leafSigs []string) (string, error) {
	rootName := m.rootName(root)
	freshNames := make([]string, len(t.freshes))
	for i, idx := range t.freshes {
		freshNames[i] = m.fresh(names[idx])
	}
	emitted := make([]string, len(t.luts))
	var buf [truth.MaxVars]string // AddLUT copies the input list
	for j, spec := range t.luts {
		name := rootName
		if spec.nameRef >= 0 {
			name = freshNames[spec.nameRef]
		}
		inputs := buf[:len(spec.inputs)]
		for i, tok := range spec.inputs {
			if tok >= 0 {
				inputs[i] = leafSigs[tok]
			} else {
				inputs[i] = emitted[-tok-1]
			}
		}
		m.ckt.AddLUT(name, inputs, spec.table)
		if m.opts.Provenance && spec.shape != "" {
			covers := make([]string, len(spec.covers))
			for i, idx := range spec.covers {
				covers[i] = names[idx]
			}
			partOf := ""
			if spec.partIdx >= 0 {
				partOf = names[spec.partIdx]
			}
			m.ckt.SetProvenance(name, &lut.Provenance{
				Tree:      m.provTree,
				Origin:    m.provOrigin,
				Covers:    covers,
				PartOf:    partOf,
				Shape:     spec.shape,
				FaninLUTs: m.faninLUTs(inputs),
				WorkUnits: m.provUnits,
			})
		}
		emitted[j] = name
	}
	sig := emitted[len(emitted)-1]
	m.sig[root] = sig
	return sig, nil
}
