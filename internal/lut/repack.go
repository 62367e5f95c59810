package lut

import (
	"fmt"

	"chortle/internal/truth"
)

// Repacking: a peephole post-pass that merges a single-fanout LUT into
// its consumer whenever the combined distinct-input count fits K.
//
// Chortle charges one root-LUT pin per *leaf edge* of a tree (the
// paper's per-edge duplication), so a signal feeding a tree twice —
// reconvergent fanout, "such as XOR, which Chortle cannot find" — costs
// two pins in the DP even though the physical LUT needs one. After
// reconstruction the duplicate pins are already shared, which can leave
// adjacent LUT pairs whose union of inputs fits a single table. Merging
// them recovers part of the reconvergence loss without touching the
// mapping algorithm; it is a first step toward the paper's
// reconvergent-fanout future work (and toward Chortle-crf).

// Repack merges single-fanout LUTs into their consumers while the
// merged input set stays within K, repeating to a fixed point. Returns
// the number of LUTs eliminated. Functionality is preserved (merged
// tables are recomputed exactly).
func (c *Circuit) Repack() (int, error) {
	removed := 0
	for {
		merged, err := c.repackOnce()
		if err != nil {
			return removed, err
		}
		if merged == 0 {
			return removed, nil
		}
		removed += merged
	}
}

func (c *Circuit) repackOnce() (int, error) {
	order, err := c.topoOrder()
	if err != nil {
		return 0, err
	}
	// Fanout: uses as LUT inputs (deduplicated per consumer pin list —
	// each mention counts, a double-pin consumer still counts twice but
	// merging handles it) plus circuit outputs.
	fanout := make(map[string]int)
	consumer := make(map[string]*LUT)
	for _, l := range c.LUTs {
		for _, in := range l.Inputs {
			fanout[in]++
			consumer[in] = l
		}
	}
	for _, o := range c.Outputs {
		fanout[o.Signal]++
	}
	for _, l := range c.Latches {
		fanout[l.D]++
	}

	merged := 0
	for _, l := range order {
		if fanout[l.Name] != 1 {
			continue
		}
		m := consumer[l.Name]
		if m == nil || m == l {
			continue
		}
		// Combined inputs: m's inputs with l replaced by l's inputs.
		var inputs []string
		seen := map[string]bool{}
		add := func(name string) {
			if !seen[name] {
				seen[name] = true
				inputs = append(inputs, name)
			}
		}
		for _, in := range m.Inputs {
			if in == l.Name {
				for _, lin := range l.Inputs {
					add(lin)
				}
			} else {
				add(in)
			}
		}
		if len(inputs) > c.K {
			continue
		}
		idx := make(map[string]int, len(inputs))
		for i, in := range inputs {
			idx[in] = i
		}
		mOld := m.Table
		mInputs := append([]string(nil), m.Inputs...)
		table := truth.FromFunc(len(inputs), func(assign uint) bool {
			// Evaluate l on the merged assignment, then m.
			var la uint
			for i, lin := range l.Inputs {
				if assign>>uint(idx[lin])&1 == 1 {
					la |= 1 << uint(i)
				}
			}
			lval := l.Table.Eval(la)
			var ma uint
			for i, min := range mInputs {
				var v bool
				if min == l.Name {
					v = lval
				} else {
					v = assign>>uint(idx[min])&1 == 1
				}
				if v {
					ma |= 1 << uint(i)
				}
			}
			return mOld.Eval(ma)
		})
		m.Inputs = inputs
		m.Table = table
		c.foldProvenance(l.Name, m)
		c.removeLUT(l.Name)
		merged++
		// Recompute bookkeeping lazily: restart this pass.
		return merged, nil
	}
	return merged, nil
}

// foldProvenance moves the merged LUT's covered gates into the
// consumer's provenance record and refreshes the consumer's fanin-LUT
// edges, so repacking keeps the cover partition intact. No-op when the
// circuit carries no provenance.
func (c *Circuit) foldProvenance(merged string, into *LUT) {
	if c.prov == nil {
		return
	}
	mp, ip := c.prov[merged], c.prov[into.Name]
	if ip != nil {
		if mp != nil {
			ip.Covers = append(ip.Covers, mp.Covers...)
		}
		if len(ip.Covers) > 0 {
			ip.PartOf = ""
		}
		ip.FaninLUTs = ip.FaninLUTs[:0]
		for _, in := range into.Inputs {
			if c.byName[in] != nil {
				ip.FaninLUTs = append(ip.FaninLUTs, in)
			}
		}
	}
	delete(c.prov, merged)
}

// removeLUT deletes the named LUT (which must be unreferenced).
func (c *Circuit) removeLUT(name string) {
	for i, l := range c.LUTs {
		if l.Name == name {
			c.LUTs = append(c.LUTs[:i], c.LUTs[i+1:]...)
			for j := i; j < len(c.LUTs); j++ {
				c.LUTs[j].id = j
			}
			delete(c.byName, name)
			return
		}
	}
	panic(fmt.Sprintf("lut: removeLUT(%q): not found", name))
}
