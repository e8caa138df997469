package engine

import (
	"math"
	"math/bits"
)

// exactFloat is an exact accumulator of float64 values: a signed
// fixed-point integer in base 2^32 whose limbs span whatever slice of
// the double range the inputs actually use. Because every addition is
// integer arithmetic, accumulation is exactly associative and
// commutative — the final value does not depend on the order values
// were added or on how the input was partitioned. Finalization rounds
// the exact total to the nearest float64 (ties to even) once.
//
// This is the property the cluster layer is built on: a scan split
// across parallel workers, table shards, or remote nodes produces the
// same aggregate bytes as a single sequential scan, so result caches
// never fragment by execution layout and golden tests hold across
// shard counts.
//
// Limbs are kept in carry-save form (each limb is a signed int64
// holding a base-2^32 digit plus accumulated carries); carries are
// propagated only on canonicalization. A limb gains at most 2^33 of
// magnitude per Add, so billions of additions fit before overflow —
// far beyond the few hundred chunk folds an accumulator sees.
type exactFloat struct {
	limbs []int64 // signed base-2^32 digits, carry-save, little-endian
	lo    int32   // limbs[i] has weight 2^(32*(int(lo)+i) - 1074)
	// special accumulates non-finite inputs (±Inf, NaN) with ordinary
	// float addition; a non-zero special dominates Round, matching the
	// IEEE behavior of a plain running sum.
	special float64
}

const exactBias = 1074 // bit offset 0 corresponds to weight 2^-1074

// addBits folds the value with the given float64 bit pattern into the
// accumulator. Zero is the identity and is skipped by the caller.
func (x *exactFloat) addBits(b uint64) {
	exp := int(b>>52) & 0x7FF
	mant := b & (1<<52 - 1)
	if exp == 0x7FF {
		x.special += math.Float64frombits(b)
		return
	}
	if exp == 0 {
		if mant == 0 {
			return // ±0
		}
		exp = 1 // subnormal: weight 2^(1-1075), no implicit bit
	} else {
		mant |= 1 << 52
	}
	// value = ±mant * 2^(exp-1075); bit offset above 2^-1074 is exp-1.
	off := exp - 1
	li := off >> 5
	sh := uint(off & 31)
	// mant<<sh spans at most 85 bits = three base-2^32 digits.
	lo64 := mant << sh
	var hi64 uint64
	if sh > 0 {
		hi64 = mant >> (64 - sh)
	}
	x.reserve(li, li+2)
	i := li - int(x.lo)
	if b>>63 == 0 {
		x.limbs[i] += int64(lo64 & 0xFFFFFFFF)
		x.limbs[i+1] += int64(lo64 >> 32)
		x.limbs[i+2] += int64(hi64)
	} else {
		x.limbs[i] -= int64(lo64 & 0xFFFFFFFF)
		x.limbs[i+1] -= int64(lo64 >> 32)
		x.limbs[i+2] -= int64(hi64)
	}
}

// Add folds v into the accumulator.
func (x *exactFloat) Add(v float64) {
	if v == 0 {
		return
	}
	x.addBits(math.Float64bits(v))
}

// Limb indices of finite float64 inputs lie in [0, exactMaxLimb]: the
// top double has bit offset 2045, whose three-digit span ends at limb 65.
const exactMaxLimb = 65

// exactHeadroom is how many spare limbs reserve adds beyond each edge it
// has to move. Inputs to one accumulator cluster in magnitude, so a
// window sized exactly to the values seen so far regrows on almost
// every new exponent; two limbs (a factor of 2^64 in magnitude) per
// side make regrowth rare while the window stays a few dozen bytes.
const exactHeadroom = 2

// reserve grows the limb window to cover limb indices [from, to]. Spare
// limbs are zero and canon trims them, so headroom never shows in the
// serialized state.
func (x *exactFloat) reserve(from, to int) {
	curLo, curHi := math.MaxInt, -1 // the empty window
	if len(x.limbs) > 0 {
		curLo, curHi = int(x.lo), int(x.lo)+len(x.limbs)-1
	}
	if from >= curLo && to <= curHi {
		return
	}
	// Only an edge that has to move gets headroom.
	newLo, newHi := curLo, curHi
	if from < curLo {
		newLo = max(from-exactHeadroom, 0)
	}
	if to > curHi {
		newHi = max(to, min(to+exactHeadroom, exactMaxLimb))
	}
	grown := make([]int64, newHi-newLo+1)
	if len(x.limbs) > 0 {
		copy(grown[curLo-newLo:], x.limbs)
	}
	x.limbs = grown
	x.lo = int32(newLo)
}

// Merge folds another accumulator's exact state into x. Merging is
// plain limb addition, so it is associative and order-independent.
func (x *exactFloat) Merge(o *exactFloat) {
	x.special += o.special
	if len(o.limbs) == 0 {
		return
	}
	oLo := int(o.lo)
	x.reserve(oLo, oLo+len(o.limbs)-1)
	base := oLo - int(x.lo)
	for i, d := range o.limbs {
		x.limbs[base+i] += d
	}
}

// MergeState folds a serialized canonical state into x directly —
// digit additions only, no intermediate accumulator, no
// re-canonicalization. This is the hot operation of incremental
// execution: merging hundreds of cached chunk partials per query must
// cost limb additions, not canon passes.
func (x *exactFloat) MergeState(st ExactState) {
	if len(st.Digits) > 0 {
		lo := int(st.Lo)
		x.reserve(lo, lo+len(st.Digits)-1)
		base := lo - int(x.lo)
		if st.Neg {
			for i, d := range st.Digits {
				x.limbs[base+i] -= int64(d)
			}
		} else {
			for i, d := range st.Digits {
				x.limbs[base+i] += int64(d)
			}
		}
	}
	x.special += st.Special
}

// exactMaxDigits bounds a canonical state's digit window [lo, lo+n):
// carries out of the top input limb reach two digits higher, as far as a
// total of 2^63 of the largest double (2^1087, bit offset 2161) needs.
const exactMaxDigits = exactMaxLimb + 3

// canonBuf is canon's scratch: every limb window a reachable state has,
// plus the carry digits propagation can add above it.
type canonBuf [exactMaxDigits + 2]uint32

// canon propagates carries into a canonical sign-magnitude form:
// digits in [0, 2^32), trimmed of leading/trailing zeros. The
// canonical form of an exact value is unique, so two accumulators that
// hold the same mathematical sum — however it was assembled — have
// identical canonical states. digits is a window of buf, which the
// caller provides so that rounding allocates nothing.
func (x *exactFloat) canon(buf *canonBuf) (neg bool, lo int, digits []uint32) {
	out := buf[:]
	if n := len(x.limbs) + 2; n > len(out) {
		out = make([]uint32, n)
	}
	propagate := func(sign int64) (carry int64) {
		for i, l := range x.limbs {
			t := sign*l + carry
			d := t & 0xFFFFFFFF // the low digit, non-negative whatever t's sign
			out[i] = uint32(d)
			carry = (t - d) >> 32
		}
		return carry
	}
	carry := propagate(1)
	if carry < 0 {
		// The total is negative: negate and re-propagate to get the
		// magnitude (the negated total is non-negative, so its carry
		// chain terminates with carry >= 0).
		carry, neg = propagate(-1), true
	}
	end := len(x.limbs)
	for ; carry > 0; carry >>= 32 {
		out[end] = uint32(carry)
		end++
	}
	// Trim trailing (low) and leading (high) zero digits.
	start := 0
	for start < end && out[start] == 0 {
		start++
	}
	for end > start && out[end-1] == 0 {
		end--
	}
	if start == end {
		return false, 0, nil
	}
	return neg, int(x.lo) + start, out[start:end]
}

// Round returns the accumulated total rounded to the nearest float64
// (ties to even). Non-finite inputs dominate, mirroring a plain
// running float sum; a NaN total is the canonical NaN, as it is after a
// trip through State, whatever payload the inputs carried.
func (x *exactFloat) Round() float64 {
	if x.special != x.special {
		return math.NaN()
	}
	if x.special != 0 {
		return x.special
	}
	var buf canonBuf
	neg, lo, digits := x.canon(&buf)
	return roundDigits(neg, lo, digits)
}

// roundDigits rounds a canonical sign-magnitude fixed-point value to
// float64. digits are base-2^32, little-endian, digits[i] weighted
// 2^(32*(lo+i) - 1074).
func roundDigits(neg bool, lo int, digits []uint32) float64 {
	if len(digits) == 0 {
		return 0
	}
	top := len(digits) - 1
	// Absolute bit position (above 2^-1074) of the most significant bit.
	msb := 32*(lo+top) + bits.Len32(digits[top]) - 1
	// Keep 53 significant bits; everything below ulpPos rounds. The
	// floor at 0 keeps subnormals on the 2^-1074 grid.
	ulpPos := msb - 52
	if ulpPos < 0 {
		ulpPos = 0
	}
	// Collect the integer part above ulpPos, the round bit, and a
	// sticky flag for everything below.
	var mant uint64
	var round, sticky bool
	for i := top; i >= 0; i-- {
		base := 32 * (lo + i) // bit position of digits[i]'s bit 0
		d := digits[i]
		if base >= ulpPos {
			mant = mant<<32 | uint64(d)
			continue
		}
		if base+32 <= ulpPos-1 {
			// Entirely below the round bit.
			if d != 0 {
				sticky = true
			}
			continue
		}
		// The digit straddles ulpPos: split it.
		shift := uint(ulpPos - base)
		mant = mant<<(32-shift) | uint64(d>>shift)
		rest := d & (1<<shift - 1)
		if rest>>(shift-1) != 0 {
			round = true
		}
		if rest&(1<<(shift-1)-1) != 0 {
			sticky = true
		}
	}
	// When every digit lies at or above ulpPos, the grid bits between
	// ulpPos and the lowest digit are zero: align the mantissa so its
	// unit is exactly 2^ulpPos.
	if low := 32 * lo; low > ulpPos {
		mant <<= uint(low - ulpPos)
	}
	// Round half to even.
	if round && (sticky || mant&1 == 1) {
		mant++
	}
	f := math.Ldexp(float64(mant), ulpPos-exactBias)
	if neg {
		f = -f
	}
	return f
}

// ExactState is the canonical serialized form of an exact sum: base-2^32
// digits of the magnitude plus a sign, exactly as produced by canon, and
// the non-finite part (0 when the sum is finite). Equal exact values
// always serialize to equal states.
type ExactState struct {
	Digits  []uint32 `json:"d,omitempty"`
	Special float64  `json:"special,omitempty"`
	Lo      int32    `json:"lo,omitempty"`
	Neg     bool     `json:"neg,omitempty"`
}

// State snapshots the accumulator in canonical form. Digits is a fresh
// slice exactly as long as the digits (stored runs hold states for a long
// time, so none keeps a wider scratch array alive), and a NaN Special is
// the canonical NaN, as Round returns it.
func (x *exactFloat) State() ExactState {
	var buf canonBuf
	neg, lo, digits := x.canon(&buf)
	st := ExactState{Neg: neg, Lo: int32(lo), Special: x.special}
	if len(digits) > 0 {
		st.Digits = append([]uint32(nil), digits...)
	}
	if st.Special != st.Special {
		st.Special = math.NaN()
	}
	return st
}

// round is Round of the accumulator the state was taken from, read off
// its canonical digits.
func (st *ExactState) round() float64 {
	if st.Special != st.Special {
		return math.NaN()
	}
	if st.Special != 0 {
		return st.Special
	}
	return roundDigits(st.Neg, int(st.Lo), st.Digits)
}
