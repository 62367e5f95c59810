// Package truth implements bit-packed truth tables for Boolean functions
// of up to six variables, together with the equivalence-class machinery
// (permutation and negation canonical forms) that the Chortle paper uses
// to size lookup-table libraries: a K-input lookup table implements any
// of the 2^(2^K) functions of K variables, and the MIS-style baseline
// library of Section 4.1 needs one representative per permutation class.
//
// A Table stores the function's output column as a uint64: bit m holds
// f(m) where minterm m assigns variable i the value of bit i of m.
// All operations are value semantics; Tables are comparable and can be
// used as map keys, which the class-enumeration code relies on.
package truth

import (
	"fmt"
	"math/bits"
)

// MaxVars is the largest supported number of variables. 2^(2^6) functions
// do not fit any table, but a single 6-input function fits in a uint64,
// which is all the mapper needs (the paper evaluates K = 2..5).
const MaxVars = 6

// Table is a Boolean function of N variables stored as a packed truth
// table. Bits above 2^N are kept zeroed so that equal functions compare
// equal with ==.
type Table struct {
	Bits uint64 // bit m = f(m)
	N    int    // number of variables, 0..MaxVars
}

// Mask returns the bitmask covering the 2^n rows of an n-variable table.
func Mask(n int) uint64 {
	if n >= MaxVars {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << uint(n))) - 1
}

// New returns a table over n variables with the given output bits.
// Bits outside the table are cleared. It panics if n is out of range,
// which indicates a programming error in the caller.
func New(n int, bits uint64) Table {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("truth: %d variables out of range [0,%d]", n, MaxVars))
	}
	return Table{Bits: bits & Mask(n), N: n}
}

// Const returns the constant function v over n variables.
func Const(n int, v bool) Table {
	if v {
		return New(n, ^uint64(0))
	}
	return New(n, 0)
}

// Var returns the projection function x_i over n variables.
func Var(i, n int) Table {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("truth: variable %d out of range for %d inputs", i, n))
	}
	var b uint64
	for m := uint(0); m < 1<<uint(n); m++ {
		if m>>uint(i)&1 == 1 {
			b |= 1 << m
		}
	}
	return Table{Bits: b, N: n}
}

// FromFunc builds a table by evaluating f on every minterm.
func FromFunc(n int, f func(m uint) bool) Table {
	var b uint64
	for m := uint(0); m < 1<<uint(n); m++ {
		if f(m) {
			b |= 1 << m
		}
	}
	return New(n, b)
}

// Eval returns f(m) for the minterm m (bit i of m = value of variable i).
func (t Table) Eval(m uint) bool { return t.Bits>>(m&(1<<uint(t.N)-1))&1 == 1 }

// Not returns the complement of t.
func (t Table) Not() Table { return Table{Bits: ^t.Bits & Mask(t.N), N: t.N} }

// And returns t AND u. Both tables must range over the same variables.
func (t Table) And(u Table) Table { t.mustMatch(u); return Table{Bits: t.Bits & u.Bits, N: t.N} }

// Or returns t OR u.
func (t Table) Or(u Table) Table { t.mustMatch(u); return Table{Bits: t.Bits | u.Bits, N: t.N} }

// Xor returns t XOR u.
func (t Table) Xor(u Table) Table { t.mustMatch(u); return Table{Bits: t.Bits ^ u.Bits, N: t.N} }

func (t Table) mustMatch(u Table) {
	if t.N != u.N {
		panic(fmt.Sprintf("truth: mixed arities %d and %d", t.N, u.N))
	}
}

// IsConst reports whether t is a constant function, and which constant.
func (t Table) IsConst() (bool, bool) {
	switch t.Bits {
	case 0:
		return true, false
	case Mask(t.N):
		return true, true
	}
	return false, false
}

// Ones returns the number of minterms on which t is true.
func (t Table) Ones() int { return bits.OnesCount64(t.Bits) }

// Cofactor returns the cofactor of t with variable i fixed to val.
// The result still ranges over all N variables (variable i is simply
// unused in it), which keeps compositions simple.
func (t Table) Cofactor(i int, val bool) Table {
	return FromFunc(t.N, func(m uint) bool {
		if val {
			return t.Eval(m | 1<<uint(i))
		}
		return t.Eval(m &^ (1 << uint(i)))
	})
}

// DependsOn reports whether t actually depends on variable i.
func (t Table) DependsOn(i int) bool {
	return t.Cofactor(i, false) != t.Cofactor(i, true)
}

// Support returns the bitmask of variables t depends on.
func (t Table) Support() uint {
	var s uint
	for i := 0; i < t.N; i++ {
		if t.DependsOn(i) {
			s |= 1 << uint(i)
		}
	}
	return s
}

// SupportSize returns the number of variables t depends on.
func (t Table) SupportSize() int { return bits.OnesCount(t.Support()) }

// Shrink re-expresses t over only its support variables, in ascending
// order, and returns the new table together with the original index of
// each remaining variable. A constant shrinks to a 0-variable table.
func (t Table) Shrink() (Table, []int) {
	var vars []int
	for i := 0; i < t.N; i++ {
		if t.DependsOn(i) {
			vars = append(vars, i)
		}
	}
	out := FromFunc(len(vars), func(m uint) bool {
		var full uint
		for j, v := range vars {
			if m>>uint(j)&1 == 1 {
				full |= 1 << uint(v)
			}
		}
		return t.Eval(full)
	})
	return out, vars
}

// Grow re-expresses t over n >= t.N variables, mapping old variable j to
// new position vars[j]. Positions must be distinct and < n.
func (t Table) Grow(n int, vars []int) Table {
	if len(vars) != t.N {
		panic("truth: Grow needs one position per existing variable")
	}
	return FromFunc(n, func(m uint) bool {
		var small uint
		for j, v := range vars {
			if m>>uint(v)&1 == 1 {
				small |= 1 << uint(j)
			}
		}
		return t.Eval(small)
	})
}

// Permute returns t with its inputs permuted: the result r satisfies
// r(x_0..x_{n-1}) = t(x_{p[0]}, ..., x_{p[n-1]}); that is, input i of t
// is driven by variable p[i].
func (t Table) Permute(p []int) Table {
	if len(p) != t.N {
		panic("truth: permutation length mismatch")
	}
	return FromFunc(t.N, func(m uint) bool {
		var pm uint
		for i := 0; i < t.N; i++ {
			if m>>uint(p[i])&1 == 1 {
				pm |= 1 << uint(i)
			}
		}
		return t.Eval(pm)
	})
}

// NegateInput returns t with input i complemented.
func (t Table) NegateInput(i int) Table {
	return FromFunc(t.N, func(m uint) bool { return t.Eval(m ^ 1<<uint(i)) })
}

// NegateInputs returns t with every input in mask complemented.
func (t Table) NegateInputs(mask uint) Table {
	return FromFunc(t.N, func(m uint) bool { return t.Eval(m ^ mask) })
}

// String renders the table as its hex output column, most significant
// row first, e.g. the 2-input AND is "Table[2]{0x8}".
func (t Table) String() string {
	return fmt.Sprintf("Table[%d]{%#x}", t.N, t.Bits)
}
