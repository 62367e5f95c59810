package truth

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVarProjection(t *testing.T) {
	for n := 1; n <= MaxVars; n++ {
		for i := 0; i < n; i++ {
			v := Var(i, n)
			for m := uint(0); m < 1<<uint(n); m++ {
				want := m>>uint(i)&1 == 1
				if v.Eval(m) != want {
					t.Fatalf("Var(%d,%d).Eval(%b) = %v, want %v", i, n, m, v.Eval(m), want)
				}
			}
		}
	}
}

func TestConst(t *testing.T) {
	for n := 0; n <= MaxVars; n++ {
		c0, c1 := Const(n, false), Const(n, true)
		if ok, v := c0.IsConst(); !ok || v {
			t.Fatalf("Const(%d,false) not recognized", n)
		}
		if ok, v := c1.IsConst(); !ok || !v {
			t.Fatalf("Const(%d,true) not recognized", n)
		}
		if c0.Ones() != 0 || c1.Ones() != 1<<uint(n) {
			t.Fatalf("Ones wrong for constants over %d vars", n)
		}
	}
}

func TestBooleanAlgebraIdentities(t *testing.T) {
	// De Morgan, double complement, absorption — on random 4-var tables.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := New(4, rng.Uint64())
		b := New(4, rng.Uint64())
		if a.And(b).Not() != a.Not().Or(b.Not()) {
			t.Fatal("De Morgan (AND) violated")
		}
		if a.Or(b).Not() != a.Not().And(b.Not()) {
			t.Fatal("De Morgan (OR) violated")
		}
		if a.Not().Not() != a {
			t.Fatal("double complement violated")
		}
		if a.Or(a.And(b)) != a {
			t.Fatal("absorption violated")
		}
		if a.Xor(b) != a.And(b.Not()).Or(a.Not().And(b)) {
			t.Fatal("XOR expansion violated")
		}
	}
}

func TestShannonExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		f := New(5, rng.Uint64())
		for v := 0; v < 5; v++ {
			x := Var(v, 5)
			rebuilt := x.And(f.Cofactor(v, true)).Or(x.Not().And(f.Cofactor(v, false)))
			if rebuilt != f {
				t.Fatalf("Shannon expansion on var %d failed for %v", v, f)
			}
		}
	}
}

func TestSupport(t *testing.T) {
	f := Var(0, 4).And(Var(2, 4)) // depends on x0, x2 only
	if got := f.Support(); got != 0b0101 {
		t.Fatalf("Support = %04b, want 0101", got)
	}
	if f.SupportSize() != 2 {
		t.Fatalf("SupportSize = %d, want 2", f.SupportSize())
	}
	if c, _ := Const(4, true).IsConst(); !c || Const(4, true).Support() != 0 {
		t.Fatal("constant should have empty support")
	}
}

func TestShrinkGrowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		f := New(5, rng.Uint64())
		small, vars := f.Shrink()
		if small.N != f.SupportSize() {
			t.Fatalf("Shrink arity %d != support size %d", small.N, f.SupportSize())
		}
		if small.Grow(5, vars) != f {
			t.Fatalf("Shrink/Grow round trip failed for %v", f)
		}
	}
}

func TestPermuteComposition(t *testing.T) {
	// Permuting by p then q equals permuting by the composition.
	f := FromFunc(3, func(m uint) bool { return m == 0b011 || m == 0b100 })
	p := []int{1, 2, 0}
	q := []int{2, 0, 1}
	lhs := f.Permute(p).Permute(q)
	comp := make([]int, 3)
	for i := range comp {
		comp[i] = p[q[i]]
	}
	rhs := f.Permute(comp)
	if lhs != rhs {
		t.Fatalf("permute composition: %v vs %v", lhs, rhs)
	}
}

func TestPermuteSemantics(t *testing.T) {
	// r = f.Permute(p) must satisfy r(x) = f(x_{p[0]},...,x_{p[n-1]}).
	f := Var(0, 3) // f = x0
	r := f.Permute([]int{2, 0, 1})
	// r's input 0 is driven by variable 2, so r = x2.
	if r != Var(2, 3) {
		t.Fatalf("Permute semantics: got %v, want x2", r)
	}
}

func TestNegateInput(t *testing.T) {
	f := Var(1, 3)
	if f.NegateInput(1) != Var(1, 3).Not() {
		t.Fatal("NegateInput on projection should complement it")
	}
	if f.NegateInput(0) != f {
		t.Fatal("NegateInput on unused variable should be identity")
	}
	if f.NegateInputs(0b010) != f.Not() {
		t.Fatal("NegateInputs mask semantics wrong")
	}
}

func TestCanonPInvariance(t *testing.T) {
	// CanonP must be invariant under any input permutation.
	err := quick.Check(func(bits uint64, seed int64) bool {
		f := New(4, bits)
		rng := rand.New(rand.NewSource(seed))
		p := rng.Perm(4)
		return f.CanonP() == f.Permute(p).CanonP()
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCanonNPNInvariance(t *testing.T) {
	err := quick.Check(func(bits uint64, seed int64) bool {
		f := New(4, bits)
		rng := rand.New(rand.NewSource(seed))
		g := f.NegateInputs(uint(rng.Intn(16))).Permute(rng.Perm(4))
		if rng.Intn(2) == 1 {
			g = g.Not()
		}
		return f.CanonNPN() == g.CanonNPN()
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUniqueFunctionCounts reproduces the library-size arithmetic of the
// paper's Section 4.1: 10 unique functions for K=2 (out of 16) and 78
// for K=3 (out of 256) — permutation classes with constants excluded.
// The known total class counts (with constants) 4, 12, 80, 3984 and the
// NPN counts 2, 4, 14, 222 pin down the implementation independently.
func TestUniqueFunctionCounts(t *testing.T) {
	if got := CountPClasses(2); got != 10 {
		t.Errorf("K=2 unique functions = %d, paper says 10", got)
	}
	if got := CountPClasses(3); got != 78 {
		t.Errorf("K=3 unique functions = %d, paper says 78", got)
	}
	wantPTotal := map[int]int{1: 4, 2: 12, 3: 80, 4: 3984}
	for n, want := range wantPTotal {
		if got := len(PClasses(n, true)); got != want {
			t.Errorf("total P classes n=%d: got %d, want %d", n, got, want)
		}
	}
	wantNPN := map[int]int{1: 2, 2: 4, 3: 14, 4: 222}
	for n, want := range wantNPN {
		if got := len(NPNClasses(n, true)); got != want {
			t.Errorf("total NPN classes n=%d: got %d, want %d", n, got, want)
		}
	}
}

func TestPClassRepresentativesAreCanonical(t *testing.T) {
	for _, c := range PClasses(3, true) {
		if c.CanonP() != c {
			t.Fatalf("representative %v is not its own canonical form", c)
		}
	}
}

func BenchmarkCanonP4(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tabs := make([]Table, 256)
	for i := range tabs {
		tabs[i] = New(4, rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tabs[i%len(tabs)].CanonP()
	}
}

func BenchmarkPClassEnumeration3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = PClasses(3, false)
	}
}
