package cut

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"chortle/internal/truth"
)

// The per-gate kernel against a reference: the straightforward
// prune-then-sort-then-truncate that enumeration used before
// prioritize. Both must keep the same cuts in the same order and report
// the same dominated and evicted counts on any candidate list.

// refPruneDominated removes, in place, duplicates and any cut whose
// leaves are a superset of another candidate's, visiting candidates in
// arrival order and evicting kept cuts a later candidate dominates.
func refPruneDominated(cands []cutSet) []cutSet {
	out := cands[:0]
	for i := range cands {
		c := &cands[i]
		dominated := false
		for x := range out {
			if out[x].subsetOf(c) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		w := 0
		for x := range out {
			if !c.subsetOf(&out[x]) {
				out[w] = out[x]
				w++
			}
		}
		out = append(out[:w], *c)
	}
	return out
}

// refCompareCuts is the by-value comparator the reference sorts with.
func refCompareCuts(a, b cutSet) int {
	if c := cmp.Compare(a.flow, b.flow); c != 0 {
		return c
	}
	if c := cmp.Compare(a.depth, b.depth); c != 0 {
		return c
	}
	if c := cmp.Compare(a.n, b.n); c != 0 {
		return c
	}
	return slices.Compare(a.leafIDs(), b.leafIDs())
}

// refKernel prunes, scores every survivor (skipping input leaves
// explicitly), sorts the whole list and truncates it to bound.
func refKernel(data []nodeData, isInput []bool, cands []cutSet, bound int) (kept []cutSet, dominated, evicted int) {
	kept = refPruneDominated(slices.Clone(cands))
	dominated = len(cands) - len(kept)
	for i := range kept {
		c := &kept[i]
		flow := 1.0
		var depth int32
		for _, l := range c.leafIDs() {
			d := &data[l]
			if isInput[l] {
				continue
			}
			flow += d.est / d.refs
			if d.depth > depth {
				depth = d.depth
			}
		}
		c.flow = flow
		c.depth = depth + 1
	}
	slices.SortFunc(kept, refCompareCuts)
	if len(kept) > bound {
		evicted = len(kept) - bound
		kept = kept[:bound]
	}
	return kept, dominated, evicted
}

// kernelCase is one candidate list with the node estimates it is
// scored against.
type kernelCase struct {
	k, bound int
	data     []nodeData
	isInput  []bool
	cands    []cutSet
}

// newCut builds a cut over the given sorted, distinct leaves. The slots
// past the leaf count hold junk, as merged cuts' slots may.
func newCut(leaves []int32, junk int32) cutSet {
	c := cutSet{n: int32(len(leaves))}
	for i := range c.leaves {
		c.leaves[i] = junk
	}
	for i, l := range leaves {
		c.leaves[i] = l
		c.sig |= 1 << (uint(l) & 63)
	}
	return c
}

// checkKernel runs prioritize and the reference on the same case and
// fails on any difference in the kept cuts, their order, or the counts.
func checkKernel(t *testing.T, kc kernelCase) {
	t.Helper()
	want, wantDom, wantEv := refKernel(kc.data, kc.isInput, kc.cands, kc.bound)
	m := &mapper{data: kc.data}
	got, _, dom, ev := m.prioritize(make([]cutSet, 0, kc.bound), slices.Clone(kc.cands), nil)
	if dom != wantDom || ev != wantEv {
		t.Fatalf("K=%d bound=%d, %d candidates: dominated %d evicted %d, reference %d and %d",
			kc.k, kc.bound, len(kc.cands), dom, ev, wantDom, wantEv)
	}
	if len(got) != len(want) {
		t.Fatalf("K=%d bound=%d: kept %d cuts, reference %d", kc.k, kc.bound, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if !slices.Equal(g.leafIDs(), w.leafIDs()) || g.sig != w.sig || g.flow != w.flow || g.depth != w.depth {
			t.Fatalf("K=%d bound=%d: cut %d is %v (flow %v depth %d), reference %v (flow %v depth %d)",
				kc.k, kc.bound, i, g.leafIDs(), g.flow, g.depth, w.leafIDs(), w.flow, w.depth)
		}
	}
}

// kernelNodes gives nodes [0, n) estimates that collide often: flows
// and depths from a handful of small values, so distinct cuts tie on
// flow and depth and the leaf-count and leaf-ID tie-breaks decide.
// About one node in four is an input, with est and depth 0 as
// enumeration leaves them. next(n) draws from [0, n).
func kernelNodes(n int, next func(int) int) ([]nodeData, []bool) {
	data := make([]nodeData, n)
	isInput := make([]bool, n)
	for id := range data {
		d := &data[id]
		d.refs = float64(1 + next(3))
		if next(4) == 0 {
			isInput[id] = true
			continue
		}
		d.est = float64(next(4)) / 2
		d.depth = int32(next(3))
	}
	return data, isInput
}

// randKernelCase draws a candidate list at K: fresh random cuts of
// every size 1..K, duplicates of earlier candidates, and subsets and
// supersets of earlier candidates, over a universe small enough for
// dominance to be common and, sometimes, wide enough for signature
// bits to alias.
func randKernelCase(rng *rand.Rand, k, bound int) kernelCase {
	universe := k + rng.Intn(12)
	if rng.Intn(4) == 0 {
		universe = 64 + rng.Intn(80)
	}
	data, isInput := kernelNodes(universe, rng.Intn)
	kc := kernelCase{k: k, bound: bound, data: data, isInput: isInput}
	count := 1 + rng.Intn(80)
	for len(kc.cands) < count {
		junk := int32(rng.Intn(1000))
		var leaves []int32
		switch r := rng.Intn(6); {
		case r == 0 && len(kc.cands) > 0:
			kc.cands = append(kc.cands, kc.cands[rng.Intn(len(kc.cands))])
			continue
		case r == 1 && len(kc.cands) > 0:
			// A subset or a superset of an earlier candidate.
			base := kc.cands[rng.Intn(len(kc.cands))]
			leaves = slices.Clone(base.leafIDs())
			if len(leaves) > 1 && (len(leaves) == k || rng.Intn(2) == 0) {
				i := rng.Intn(len(leaves))
				leaves = slices.Delete(leaves, i, i+1)
			} else if l := int32(rng.Intn(universe)); !slices.Contains(leaves, l) {
				leaves = append(leaves, l)
			}
		default:
			size := 1 + rng.Intn(min(k, universe))
			for _, l := range rng.Perm(universe)[:size] {
				leaves = append(leaves, int32(l))
			}
		}
		slices.Sort(leaves)
		kc.cands = append(kc.cands, newCut(leaves, junk))
	}
	return kc
}

// TestKernelMatchesReference compares prioritize with the reference on
// random candidate lists at every K and bound.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	reps := 300
	if testing.Short() {
		reps = 40
	}
	for k := 2; k <= truth.MaxVars; k++ {
		for bound := 1; bound <= 8; bound++ {
			for rep := 0; rep < reps; rep++ {
				checkKernel(t, randKernelCase(rng, k, bound))
			}
		}
	}
}

// decodeKernelCase builds a kernel case from fuzz bytes: byte 0 picks
// K, byte 1 the bound, byte 2 the universe and byte 3 seeds the node
// estimates; then each candidate takes one byte for its size and one
// per leaf. Leaves outside the universe wrap, and repeated leaves
// collapse, so every byte string decodes to a valid list.
func decodeKernelCase(b []byte) kernelCase {
	for len(b) < 4 {
		b = append(b, 0)
	}
	k := 2 + int(b[0])%(truth.MaxVars-1)
	bound := 1 + int(b[1])%8
	universe := k + int(b[2])%140
	seed := uint32(b[3])
	data, isInput := kernelNodes(universe, func(n int) int {
		seed = seed*1664525 + 1013904223
		return int(seed>>16) % n
	})
	kc := kernelCase{k: k, bound: bound, data: data, isInput: isInput}
	body := b[4:]
	for len(body) > 0 && len(kc.cands) < 128 {
		size := 1 + int(body[0])%k
		body = body[1:]
		var leaves []int32
		for ; size > 0 && len(body) > 0; size-- {
			if l := int32(int(body[0]) % universe); !slices.Contains(leaves, l) {
				leaves = append(leaves, l)
			}
			body = body[1:]
		}
		if len(leaves) == 0 {
			continue
		}
		slices.Sort(leaves)
		kc.cands = append(kc.cands, newCut(leaves, int32(size)))
	}
	if len(kc.cands) == 0 {
		kc.cands = append(kc.cands, newCut([]int32{0}, 0))
	}
	return kc
}

// FuzzCutKernel drives the kernel-versus-reference comparison from
// fuzzer bytes. CI runs a 30 s smoke (-fuzz with -fuzztime).
func FuzzCutKernel(f *testing.F) {
	f.Add([]byte{4, 7, 6, 1, 1, 0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 0, 1, 1, 1})
	f.Add([]byte{2, 0, 0, 9, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 10, 3, 0, 1, 0, 2, 0, 3, 0, 4, 1, 5, 6})
	f.Add([]byte{4, 3, 100, 5, 5, 0, 64, 2, 66, 7, 3, 1, 65, 129, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkKernel(t, decodeKernelCase(b))
	})
}
