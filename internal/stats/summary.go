package stats

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"

	"seedb/internal/engine"
)

const (
	// heavyFreq splits the count-of-counts table: frequencies below it
	// live in a dense slice; a value whose count reaches it joins a short
	// list (at most rows/heavyFreq entries) read back at finalize.
	heavyFreq = 4096
	// maxDenseSpan is the widest max-min span for which an int or time
	// column's values index a dense window instead of a map.
	maxDenseSpan = 1 << 16
	// topValuesLimit caps ColumnStats.TopValues.
	topValuesLimit = 5
	// probeRows is how much of a batch probed reads before it decides
	// whether the column is a continuous measure.
	probeRows = 1024
)

// canonBits is the key a float counts under: its bits, with every NaN
// payload folded into one key (-0 and +0 stay apart).
func canonBits(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// colSummary is one column's typed prefix summary: everything
// ColumnStats is finalized from, accumulated over rows [0, n) straight
// off the column's backing slice and extended to [0, m) by reading only
// [n, m). Values are identified by a dense code — the dictionary code
// for strings, first-seen order for every other type — which the
// correlation tables share.
type colSummary struct {
	nulls    int
	distinct int   // codes with a non-zero count
	counts   []int // occurrences per code

	// Count-of-counts, maintained by every add: freqs[f] is the
	// number of codes seen exactly f times (0 < f < heavyFreq), heavy
	// lists the codes seen at least heavyFreq times.
	freqs []int
	heavy []int32

	// Range of the non-null values: ints and timestamps exactly, floats
	// over finite values only, so the statistic is a pure function of
	// the multiset of rows.
	ranged     bool
	imin, imax int64
	fmin, fmax float64

	// Value -> code for non-string columns. Ints and timestamps use the
	// dense window (dense[v-base] holds code+1, 0 = unseen) while their
	// span is small and the hash index keyed by the value's bits
	// afterwards; floats always use the hash index, keyed by canonBits.
	base   int64
	dense  []int32
	hashed bool
	index  codeIndex

	// A batch of a dictionary- or window-coded column is tallied into
	// delta (by code, all zero between batches) and the codes it touched,
	// then folded into counts once per touched code.
	delta   []int
	touched []int32

	sortBuf []int // scratch of heavyCounts
}

// add counts d more occurrences of code, keeping distinct and the
// count-of-counts table in step.
func (s *colSummary) add(code int32, d int) {
	was := s.counts[code]
	n := was + d
	s.counts[code] = n
	if was == 0 {
		s.distinct++
	} else if was < heavyFreq {
		s.freqs[was]--
	}
	switch {
	case n < heavyFreq:
		for n >= len(s.freqs) {
			s.freqs = append(s.freqs, 0)
		}
		s.freqs[n]++
	case was < heavyFreq:
		s.heavy = append(s.heavy, code)
	}
}

// bump counts one more occurrence of code: the per-row form of add, for
// the hash-indexed columns — mostly all-distinct measures, where a delta
// would add a write per row and save none.
func (s *colSummary) bump(code int32) { s.add(code, 1) }

// tally counts one occurrence of code into the batch's delta.
func (s *colSummary) tally(code int32) {
	if s.delta[code] == 0 {
		s.touched = append(s.touched, code)
	}
	s.delta[code]++
}

// fold adds the batch's delta into counts, one add per touched code, and
// leaves delta all zero: O(touched codes), whatever the cardinality.
func (s *colSummary) fold() {
	for _, code := range s.touched {
		s.add(code, s.delta[code])
		s.delta[code] = 0
	}
	s.touched = s.touched[:0]
}

// grow extends counts and delta to n codes.
func (s *colSummary) grow(n int) {
	for len(s.counts) < n {
		s.counts = append(s.counts, 0)
		s.delta = append(s.delta, 0)
	}
}

// heavyCounts returns the counts of the heavy codes, ascending.
func (s *colSummary) heavyCounts() []int {
	s.sortBuf = s.sortBuf[:0]
	for _, code := range s.heavy {
		s.sortBuf = append(s.sortBuf, s.counts[code])
	}
	sort.Ints(s.sortBuf)
	return s.sortBuf
}

// extend folds rows [lo, hi) of the column into the summary.
func (s *colSummary) extend(col engine.Column, lo, hi int) {
	switch c := col.(type) {
	case *engine.StringColumn:
		s.grow(c.Cardinality())
		for _, code := range c.Codes()[lo:hi] {
			if code < 0 {
				s.nulls++
				continue
			}
			s.tally(code)
		}
		s.fold()
	case *engine.IntColumn:
		s.extendInts(c.Ints(), col, lo, hi)
	case *engine.TimeColumn:
		s.extendInts(c.Nanos(), col, lo, hi)
	case *engine.FloatColumn:
		s.hashed = true
		vals := c.Floats()
		s.probed(lo, hi, func(lo, hi int) {
			for row := lo; row < hi; row++ {
				if c.IsNull(row) {
					s.nulls++
					continue
				}
				f := vals[row]
				if !math.IsNaN(f) && !math.IsInf(f, 0) {
					if !s.ranged || f < s.fmin {
						s.fmin = f
					}
					if !s.ranged || f > s.fmax {
						s.fmax = f
					}
					s.ranged = true
				}
				s.bump(s.intern(canonBits(f)))
			}
		})
	}
}

// probed counts rows [lo, hi) of a hash-indexed column in two steps. A
// batch whose first probeRows rows are nearly all new values is a
// continuous measure, and the rest of it gets its room in one
// allocation: growing to 200k entries by doubling costs more than
// filling them.
func (s *colSummary) probed(lo, hi int, count func(lo, hi int)) {
	mid, seen := min(hi, lo+probeRows), len(s.counts)
	count(lo, mid)
	if rest := hi - mid; rest >= 4*probeRows && len(s.counts)-seen >= probeRows*7/8 {
		s.counts = slices.Grow(s.counts, rest)
		s.index.reserve(rest)
	}
	count(mid, hi)
}

// intern returns the code of key in the hash index, giving a new key
// the next first-seen code.
func (s *colSummary) intern(key uint64) int32 {
	code := s.index.intern(key)
	if int(code) == len(s.counts) {
		s.counts = append(s.counts, 0)
	}
	return code
}

// codeIndex assigns 64-bit keys their first-seen codes: keys lists the
// keys by code, and table is an open-addressing hash table (linear
// probing, at most half full) of code+1 with 0 for an empty slot. A
// new key costs one random memory access, where the runtime's map
// costs several dependent ones — on an all-distinct 200k-row column
// the difference is most of a cold collection.
type codeIndex struct {
	keys  []uint64
	table []int32
	shift uint // 64 - log2(len(table))
}

// slotMul is the odd multiplier of the index's multiplicative hash,
// drawn per process so that no input can be built to collide.
var slotMul = rand.Uint64() | 1

func (x *codeIndex) slot(key uint64) int { return int(key * slotMul >> x.shift) }

// reserve makes room for n more keys.
func (x *codeIndex) reserve(n int) {
	need := 2 * (len(x.keys) + n)
	if need <= len(x.table) {
		return
	}
	x.keys = slices.Grow(x.keys, n)
	size := max(16, len(x.table))
	for size < need {
		size *= 2
	}
	x.table, x.shift = make([]int32, size), uint(64-bits.TrailingZeros(uint(size)))
	for code, key := range x.keys {
		i := x.slot(key)
		for x.table[i] != 0 {
			i = (i + 1) & (size - 1)
		}
		x.table[i] = int32(code) + 1
	}
}

// intern returns key's code; a new key gets len(keys).
func (x *codeIndex) intern(key uint64) int32 {
	if 2*(len(x.keys)+1) > len(x.table) {
		x.reserve(1)
	}
	for i := x.slot(key); ; i = (i + 1) & (len(x.table) - 1) {
		switch c := x.table[i]; {
		case c == 0:
			x.keys = append(x.keys, key)
			x.table[i] = int32(len(x.keys))
			return x.table[i] - 1
		case x.keys[c-1] == key:
			return c - 1
		}
	}
}

// extendInts is extend for int and timestamp columns. A first pass
// takes the batch's range, which decides (once per batch, never per
// row) whether a dense window still fits; the second pass counts.
func (s *colSummary) extendInts(vals []int64, col engine.Column, lo, hi int) {
	for row := lo; row < hi; row++ {
		if col.IsNull(row) {
			s.nulls++
			continue
		}
		v := vals[row]
		if !s.ranged || v < s.imin {
			s.imin = v
		}
		if !s.ranged || v > s.imax {
			s.imax = v
		}
		s.ranged = true
	}
	if !s.ranged {
		return
	}
	span := uint64(s.imax - s.imin) // exact even when the int64 difference wraps
	switch {
	case s.hashed:
	case span >= maxDenseSpan:
		// The hash index numbers keys in the order it meets them, so it
		// has to meet them in code order.
		s.index.keys = make([]uint64, len(s.counts))
		for off, code := range s.dense {
			if code != 0 {
				s.index.keys[code-1] = uint64(s.base + int64(off))
			}
		}
		s.index.reserve(0)
		s.hashed, s.dense, s.delta = true, nil, nil
	case s.imin < s.base || uint64(s.imax-s.base) >= uint64(len(s.dense)):
		dense := make([]int32, span+1)
		if len(s.dense) > 0 {
			copy(dense[s.base-s.imin:], s.dense)
		}
		s.base, s.dense = s.imin, dense
	}
	if s.hashed {
		s.probed(lo, hi, func(lo, hi int) {
			for row := lo; row < hi; row++ {
				if !col.IsNull(row) {
					s.bump(s.intern(uint64(vals[row])))
				}
			}
		})
		return
	}
	for row := lo; row < hi; row++ {
		if col.IsNull(row) {
			continue
		}
		slot := &s.dense[vals[row]-s.base]
		if *slot == 0 {
			s.grow(len(s.counts) + 1)
			*slot = int32(len(s.counts))
		}
		s.tally(*slot - 1)
	}
	s.fold()
}

// codesInto writes the codes (-1 for NULL) of rows [lo, lo+len(dst)) of
// a non-string column, which the summary must already cover.
func (s *colSummary) codesInto(dst []int32, col engine.Column, lo int) {
	var ints []int64
	var floats []float64
	switch c := col.(type) {
	case *engine.IntColumn:
		ints = c.Ints()
	case *engine.TimeColumn:
		ints = c.Nanos()
	case *engine.FloatColumn:
		floats = c.Floats()
	}
	for i := range dst {
		row := lo + i
		if col.IsNull(row) {
			dst[i] = -1
			continue
		}
		var key uint64
		if floats != nil {
			key = canonBits(floats[row])
		} else {
			key = uint64(ints[row])
		}
		if s.hashed {
			dst[i] = s.index.intern(key) // present: a lookup
		} else {
			dst[i] = s.dense[int64(key)-s.base] - 1
		}
	}
}

// finalize materializes the summary as the ColumnStats of a table of
// rows rows. TopValues stays empty: see topValues.
func (s *colSummary) finalize(col engine.Column, rows int) *ColumnStats {
	cs := &ColumnStats{Name: col.Name(), Type: col.Type(), Rows: rows, Nulls: s.nulls, Distinct: s.distinct}
	if s.ranged {
		if col.Type() == engine.TypeFloat {
			cs.Min, cs.Max = s.fmin, s.fmax
		} else {
			cs.Min, cs.Max = float64(s.imin), float64(s.imax)
		}
	}
	nonNull := float64(rows - s.nulls)
	if nonNull == 0 {
		return cs
	}
	// Entropy sums -p·ln p over the value frequencies in ascending
	// order, one term per value: the order makes the float accumulation
	// a function of the multiset of counts alone, so equal data yields
	// equal bits however it arrived. The count-of-counts table gives
	// that order without sorting the values: one term per distinct
	// frequency, subtracted once per value that has it. The float64
	// conversions forbid fusing the multiply into the subtraction,
	// which would round differently.
	h := 0.0
	for f := 1; f < len(s.freqs); f++ {
		if m := s.freqs[f]; m > 0 {
			p := float64(f) / nonNull
			term := float64(p * math.Log(p))
			for ; m > 0; m-- {
				h -= term
			}
		}
	}
	for _, n := range s.heavyCounts() {
		p := float64(n) / nonNull
		h -= float64(p * math.Log(p))
	}
	cs.Entropy = h
	if cs.Distinct > 1 {
		cs.NormEntropy = h / math.Log(float64(cs.Distinct))
	}
	return cs
}

// topValues materializes the column's most frequent values, count
// descending then label ascending. It is the only place a label is
// formatted, and only for values at or above the fifth-largest count,
// which the count-of-counts table names without a sort.
func (s *colSummary) topValues(col engine.Column) []ValueCount {
	cut := 1
	if heavy := s.heavyCounts(); len(heavy) >= topValuesLimit {
		cut = heavy[len(heavy)-topValuesLimit]
	} else {
		need := topValuesLimit - len(heavy)
		for f := len(s.freqs) - 1; f > 0 && need > 0; f-- {
			if s.freqs[f] > 0 {
				cut, need = f, need-s.freqs[f]
			}
		}
	}
	var top []ValueCount
	if c, ok := col.(*engine.StringColumn); ok {
		for code, n := range s.counts {
			if n >= cut {
				top = append(top, ValueCount{Value: c.Dict()[code], Count: n})
			}
		}
	} else {
		label := func(key uint64) string { return strconv.FormatInt(int64(key), 10) }
		switch col.Type() {
		case engine.TypeTime:
			// Timestamps keep the lossless label the metadata pane has
			// always shown for them: their Unix nanoseconds.
			label = func(key uint64) string { return "t" + strconv.FormatInt(int64(key), 10) }
		case engine.TypeFloat:
			label = func(key uint64) string { return engine.Float(math.Float64frombits(key)).Format() }
		}
		add := func(key uint64, code int32) {
			if n := s.counts[code]; n >= cut {
				top = append(top, ValueCount{Value: label(key), Count: n})
			}
		}
		for off, code := range s.dense {
			if code != 0 {
				add(uint64(s.base+int64(off)), code-1)
			}
		}
		for code, key := range s.index.keys {
			add(key, int32(code))
		}
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Count != top[j].Count {
			return top[i].Count > top[j].Count
		}
		return top[i].Value < top[j].Value
	})
	if len(top) > topValuesLimit {
		top = top[:topValuesLimit]
	}
	return top
}
