package engine

import (
	"math/bits"
	"strings"
)

// Chunk-at-a-time predicate kernels.
//
// The scan path evaluates WHERE and per-aggregate filter predicates one
// grid cell (ChunkRows rows) at a time into small bitmaps — one bit per
// row, packed into uint64 words exactly like nullBitmap — instead of
// calling a BoundPredicate closure per row. Each comparison compiles to
// a branch-free inner loop (a SETcc-style bool-to-bit shift per value),
// NULL rows are cleared word-wise from the column's null bitmap, and
// boolean combinators are word-wise AND/OR/NOT. The surviving rows come
// out as a selection vector (ascending in-chunk offsets), so groupers
// consume rows in ascending row order — which is what makes the
// per-chunk float64 running sums, and therefore the result bytes, a
// function of the table alone (the naive oracle in oracle_test.go sums
// in the same order and must agree bit for bit).

// kernelWords is the word capacity needed for one chunk's bitmap.
const kernelWords = ChunkRows / 64

// kernelFn fills out[0:ceil(n/64)] with one bit per row of
// [start, start+n): bit j of word w corresponds to row start+64*w+j.
// Bits at positions >= n are zero. n is at most ChunkRows.
type kernelFn func(start, n int, out []uint64)

// b2u converts a bool to 0/1 without a branch (bools are stored as
// 0/1 bytes, so this compiles to a zero-extending move).
func b2u(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// onesFill sets the first n bits and clears the rest of the covering
// words.
func onesFill(out []uint64, n int) {
	nw := (n + 63) / 64
	for i := 0; i < nw; i++ {
		out[i] = ^uint64(0)
	}
	trimBits(out[:nw], n)
}

// zeroFill clears the words covering n bits.
func zeroFill(out []uint64, n int) {
	nw := (n + 63) / 64
	for i := 0; i < nw; i++ {
		out[i] = 0
	}
}

// trimBits zeroes the bits at positions >= n in the last word.
func trimBits(out []uint64, n int) {
	if r := n & 63; r != 0 {
		out[len(out)-1] &= 1<<uint(r) - 1
	}
}

func onesKernel(_, n int, out []uint64) { onesFill(out, n) }
func zeroKernel(_, n int, out []uint64) { zeroFill(out, n) }

// extractSel appends the positions of set bits (ascending) to sel.
// Offsets are relative to the bitmap's first bit.
func extractSel(words []uint64, sel []int32) []int32 {
	for wi, w := range words {
		base := int32(wi * 64)
		for w != 0 {
			sel = append(sel, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return sel
}

// ---------------------------------------------------------------------
// Predicate compilation

// compileKernel compiles a predicate into a chunk bitmap kernel bound
// to t. Every predicate compiles: shapes without a specialized kernel
// (float IN lists, exotic Column implementations) fall back to wrapping
// the predicate's own BoundPredicate, so compile errors are exactly
// Bind errors.
func compileKernel(p Predicate, t *Table) (kernelFn, error) {
	switch p := p.(type) {
	case *ComparePred:
		return compileCompare(p, t)
	case *InPred:
		if sc, ok := columnAs[*StringColumn](t, p.Column); ok {
			tab := make([]uint8, len(sc.Dict())+1)
			set := make(map[int32]struct{}, len(p.Values))
			for _, v := range p.Values {
				if v.Kind != TypeString || v.Null {
					continue
				}
				if code := sc.CodeOf(v.S); code >= 0 {
					set[code] = struct{}{}
				}
			}
			for code := range sc.Dict() {
				_, hit := set[int32(code)]
				if hit != p.Negate {
					tab[code+1] = 1
				}
			}
			return tableKernel(sc.Codes(), tab), nil
		}
		return fallbackKernel(p, t)
	case *NullPred:
		nb := columnNulls(t, p.Column)
		if nb == nil {
			return fallbackKernel(p, t)
		}
		if p.Negate {
			return func(start, n int, out []uint64) {
				nb.wordsInto(start, n, out)
				nw := (n + 63) / 64
				for i := 0; i < nw; i++ {
					out[i] = ^out[i]
				}
				trimBits(out[:nw], n)
			}, nil
		}
		return func(start, n int, out []uint64) { nb.wordsInto(start, n, out) }, nil
	case *AndPred:
		ks, err := compileChildren(p.Children, t)
		if err != nil {
			return nil, err
		}
		if len(ks) == 0 {
			return onesKernel, nil
		}
		tmp := make([]uint64, kernelWords)
		return func(start, n int, out []uint64) {
			ks[0](start, n, out)
			nw := (n + 63) / 64
			for _, k := range ks[1:] {
				k(start, n, tmp[:nw])
				for i := 0; i < nw; i++ {
					out[i] &= tmp[i]
				}
			}
		}, nil
	case *OrPred:
		ks, err := compileChildren(p.Children, t)
		if err != nil {
			return nil, err
		}
		if len(ks) == 0 {
			return zeroKernel, nil
		}
		tmp := make([]uint64, kernelWords)
		return func(start, n int, out []uint64) {
			ks[0](start, n, out)
			nw := (n + 63) / 64
			for _, k := range ks[1:] {
				k(start, n, tmp[:nw])
				for i := 0; i < nw; i++ {
					out[i] |= tmp[i]
				}
			}
		}, nil
	case *NotPred:
		k, err := compileKernel(p.Child, t)
		if err != nil {
			return nil, err
		}
		return func(start, n int, out []uint64) {
			k(start, n, out)
			nw := (n + 63) / 64
			for i := 0; i < nw; i++ {
				out[i] = ^out[i]
			}
			trimBits(out[:nw], n)
		}, nil
	}
	return fallbackKernel(p, t)
}

func compileChildren(children []Predicate, t *Table) ([]kernelFn, error) {
	out := make([]kernelFn, len(children))
	for i, c := range children {
		k, err := compileKernel(c, t)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

// fallbackKernel wraps the predicate's row-at-a-time evaluator; used
// for shapes without a specialized kernel. Bind errors surface
// unchanged, so compiling accepts and rejects exactly what binding does.
func fallbackKernel(p Predicate, t *Table) (kernelFn, error) {
	b, err := p.Bind(t)
	if err != nil {
		return nil, err
	}
	return func(start, n int, out []uint64) {
		for base := 0; base < n; base += 64 {
			m := min(64, n-base)
			var w uint64
			for j := 0; j < m; j++ {
				w |= b2u(b(start+base+j)) << uint(j)
			}
			out[base>>6] = w
		}
	}, nil
}

// columnAs returns the named column if it has the concrete type T.
func columnAs[T Column](t *Table, name string) (T, bool) {
	var zero T
	col, err := t.Column(name)
	if err != nil {
		return zero, false
	}
	c, ok := col.(T)
	return c, ok
}

// columnNulls returns the null bitmap of a built-in column kind, or nil
// for unknown Column implementations.
func columnNulls(t *Table, name string) *nullBitmap {
	col, err := t.Column(name)
	if err != nil {
		return nil
	}
	switch c := col.(type) {
	case *IntColumn:
		return &c.nulls
	case *FloatColumn:
		return &c.nulls
	case *StringColumn:
		return &c.nulls
	case *TimeColumn:
		return &c.nulls
	}
	return nil
}

func compileCompare(p *ComparePred, t *Table) (kernelFn, error) {
	col, err := t.Column(p.Column)
	if err != nil {
		return nil, err
	}
	if p.Value.Null {
		// SQL: comparisons with NULL are never true.
		return zeroKernel, nil
	}
	op := p.Op
	switch c := col.(type) {
	case *StringColumn:
		if p.Value.Kind != TypeString {
			return fallbackKernel(p, t)
		}
		codes := c.Codes()
		if op == OpEq || op == OpNe {
			code := c.CodeOf(p.Value.S)
			if op == OpEq {
				if code < 0 {
					return zeroKernel, nil
				}
				return func(start, n int, out []uint64) {
					v := codes[start : start+n]
					for base := 0; base < len(v); base += 64 {
						m := min(64, len(v)-base)
						var w uint64
						for j, x := range v[base : base+m] {
							w |= b2u(x == code) << uint(j)
						}
						out[base>>6] = w
					}
				}, nil
			}
			return func(start, n int, out []uint64) {
				v := codes[start : start+n]
				for base := 0; base < len(v); base += 64 {
					m := min(64, len(v)-base)
					var w uint64
					for j, x := range v[base : base+m] {
						w |= b2u(x != code && x >= 0) << uint(j)
					}
					out[base>>6] = w
				}
			}, nil
		}
		// Ordered string compare: precompute the verdict per dictionary
		// code once, then the scan is a table lookup per row.
		dict, s := c.Dict(), p.Value.S
		tab := make([]uint8, len(dict)+1)
		for i, d := range dict {
			if op.holds(strings.Compare(d, s)) {
				tab[i+1] = 1
			}
		}
		return tableKernel(codes, tab), nil
	case *IntColumn:
		nb := activeNulls(&c.nulls)
		switch p.Value.Kind {
		case TypeInt:
			return maskedCmpKernel(sliceCmpKernel(c.Ints(), p.Value.I, op), nb), nil
		case TypeFloat:
			// INT column vs FLOAT constant: convert each chunk into a
			// scratch float slice, then run the float compare pass —
			// same per-row verdicts as cmpFloat(float64(v), rhs).
			vals := c.Ints()
			fill := cmpFill(p.Value.F, op)
			conv := make([]float64, ChunkRows)
			return maskedCmpKernel(func(start, n int, out []uint64) {
				v := vals[start : start+n]
				cf := conv[:len(v)]
				for i, x := range v {
					cf[i] = float64(x)
				}
				fill(cf, out)
			}, nb), nil
		}
		return fallbackKernel(p, t)
	case *FloatColumn:
		rhs, ok := p.Value.AsFloat()
		if !ok {
			return fallbackKernel(p, t)
		}
		return maskedCmpKernel(sliceCmpKernel(c.Floats(), rhs, op), activeNulls(&c.nulls)), nil
	case *TimeColumn:
		if p.Value.Kind != TypeTime {
			return fallbackKernel(p, t)
		}
		return maskedCmpKernel(sliceCmpKernel(c.Nanos(), p.Value.I, op), activeNulls(&c.nulls)), nil
	}
	return fallbackKernel(p, t)
}

// activeNulls returns b when it has any set bit, else nil, so kernels
// skip the null-masking pass entirely on fully non-null columns.
func activeNulls(b *nullBitmap) *nullBitmap {
	if b.anySet() {
		return b
	}
	return nil
}

// maskedCmpKernel runs a compare pass and then clears NULL rows.
func maskedCmpKernel(eval kernelFn, nb *nullBitmap) kernelFn {
	if nb == nil {
		return eval
	}
	return func(start, n int, out []uint64) {
		eval(start, n, out)
		nb.andNotInto(start, n, out)
	}
}

// sliceCmpKernel builds the compare kernel over a full column slice.
func sliceCmpKernel[T int64 | float64](vals []T, rhs T, op CmpOp) kernelFn {
	fill := cmpFill(rhs, op)
	return func(start, n int, out []uint64) {
		fill(vals[start:start+n], out)
	}
}

// cmpFill builds the branch-free compare pass for one operator: given a
// chunk's values, it fills one verdict bit per value. Only < and > are
// used, mirroring the three-way cmpInt/cmpFloat + CmpOp.holds
// composition exactly — including its NaN behavior (NaN compares
// "equal" to everything because both < and > are false).
func cmpFill[T int64 | float64](rhs T, op CmpOp) func(v []T, out []uint64) {
	var fill func(v []T, out []uint64)
	switch op {
	case OpEq:
		fill = func(v []T, out []uint64) {
			for base := 0; base < len(v); base += 64 {
				m := min(64, len(v)-base)
				var w uint64
				for j, x := range v[base : base+m] {
					w |= b2u(!(x < rhs) && !(x > rhs)) << uint(j)
				}
				out[base>>6] = w
			}
		}
	case OpNe:
		fill = func(v []T, out []uint64) {
			for base := 0; base < len(v); base += 64 {
				m := min(64, len(v)-base)
				var w uint64
				for j, x := range v[base : base+m] {
					w |= b2u(x < rhs || x > rhs) << uint(j)
				}
				out[base>>6] = w
			}
		}
	case OpLt:
		fill = func(v []T, out []uint64) {
			for base := 0; base < len(v); base += 64 {
				m := min(64, len(v)-base)
				var w uint64
				for j, x := range v[base : base+m] {
					w |= b2u(x < rhs) << uint(j)
				}
				out[base>>6] = w
			}
		}
	case OpLe:
		fill = func(v []T, out []uint64) {
			for base := 0; base < len(v); base += 64 {
				m := min(64, len(v)-base)
				var w uint64
				for j, x := range v[base : base+m] {
					w |= b2u(!(x > rhs)) << uint(j)
				}
				out[base>>6] = w
			}
		}
	case OpGt:
		fill = func(v []T, out []uint64) {
			for base := 0; base < len(v); base += 64 {
				m := min(64, len(v)-base)
				var w uint64
				for j, x := range v[base : base+m] {
					w |= b2u(x > rhs) << uint(j)
				}
				out[base>>6] = w
			}
		}
	default: // OpGe
		fill = func(v []T, out []uint64) {
			for base := 0; base < len(v); base += 64 {
				m := min(64, len(v)-base)
				var w uint64
				for j, x := range v[base : base+m] {
					w |= b2u(!(x < rhs)) << uint(j)
				}
				out[base>>6] = w
			}
		}
	}
	return fill
}

// tableKernel evaluates a per-dictionary-code verdict table: bit =
// tab[code+1], so NULL rows (code -1) index slot 0, which is always 0.
func tableKernel(codes []int32, tab []uint8) kernelFn {
	return func(start, n int, out []uint64) {
		v := codes[start : start+n]
		for base := 0; base < len(v); base += 64 {
			m := min(64, len(v)-base)
			var w uint64
			for j, x := range v[base : base+m] {
				w |= uint64(tab[x+1]) << uint(j)
			}
			out[base>>6] = w
		}
	}
}

// fillSampleBits evaluates the deterministic Bernoulli sampler into a
// bitmap (same per-row verdicts as sampler.keep, in bulk).
func (s *sampler) fillSampleBits(start, n int, out []uint64) {
	for base := 0; base < n; base += 64 {
		m := min(64, n-base)
		var w uint64
		for j := 0; j < m; j++ {
			w |= b2u(s.keep(start+base+j)) << uint(j)
		}
		out[base>>6] = w
	}
}
