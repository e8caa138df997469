package engine

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
)

// The binary frame layout partials cross processes in. Counts, lengths
// and unsigned integers are uvarints, signed integers zig-zag varints,
// floats their raw IEEE-754 bits (8 bytes, little-endian — the sign of
// zero, ±Inf and NaN payloads travel as they are), strings a uvarint
// length and the bytes, and exact sums exactFloat's canonical base-2^32
// digits (4 bytes each, little-endian). Every encoding is canonical: a
// frame the reader accepts re-encodes to the same bytes.
//
// A Partial is
//
//	By:     count, strings
//	aggs:   count, then per logical aggregate Cols[i], Funcs[i], Phys[i]
//	groups: count, then per group len(By) Values and one AccState per
//	        physical accumulator (numPhys(Phys) of them)
//
// a Value is a tag byte (Kind, plus valueNull) followed, when not NULL,
// by a varint (INT, TIMESTAMP), float bits (FLOAT) or string (STRING),
// and an AccState is
//
//	flags byte (acc* below), Count as a uvarint,
//	Sum and SumSq: digit count, then if non-zero Lo and the digits;
//	               Special's float bits when its flag is set,
//	Min and Max float bits when accExtremes is set.
const valueNull = 1 << 7

const (
	accSeen = 1 << iota
	accSumNeg
	accSumSqNeg
	accSumSpecial
	accSumSqSpecial
	accExtremes
	accFlags = 1<<iota - 1
)

// minAccBytes is the smallest encoded AccState: flags, count and two
// empty digit counts.
const minAccBytes = 4

// FrameCodec is one direction of the frame layout over pointers: a
// frameWriter encodes what they point at, a frameReader decodes into it.
// A structure's frame form is then one walk over its fields that serves
// both directions, so encoder and decoder cannot drift apart; decoding
// walks a zero value, and encoding writes nothing through the pointers.
type FrameCodec interface {
	Str(*string)
	Strs(*[]string)
	Uint(*uint64)
	Int(*int)
	Float(*float64)
	// FloatMap walks a map in ascending key order; decoding refuses keys
	// out of that order.
	FloatMap(*map[string]float64)
	Partial(**Partial)
	// Len encodes n, or decodes a list length: at most max elements of
	// at least minBytes bytes each.
	Len(n, minBytes, max int) int
}

// FrameList walks the length of *s; decoding makes *s a fresh slice of
// the decoded length (nil for none).
func FrameList[T any](c FrameCodec, s *[]T, minBytes, max int) {
	if n := c.Len(len(*s), minBytes, max); n != len(*s) {
		*s = make([]T, n)
	}
}

// EncodeFrame encodes what walk visits as a frame: the header, the
// payload's length as 4 little-endian bytes, the payload.
func EncodeFrame(header string, walk func(FrameCodec)) []byte {
	w := &frameWriter{buf: append([]byte(header), 0, 0, 0, 0)}
	walk(w)
	binary.LittleEndian.PutUint32(w.buf[len(header):], uint32(len(w.buf)-len(header)-4))
	return w.buf
}

// DecodeFrame decodes a frame into what walk visits (a zero value). A
// frame under another header, of another length than it declares, or
// with a malformed payload is an error.
func DecodeFrame(data []byte, header string, walk func(FrameCodec)) error {
	n := len(header) + 4
	if len(data) < n || string(data[:len(header)]) != header {
		return fmt.Errorf("header %x, want %x", data[:min(len(data), len(header))], header)
	}
	if got := binary.LittleEndian.Uint32(data[len(header):]); int64(got) != int64(len(data)-n) {
		return fmt.Errorf("frame declares %d payload bytes, carries %d", got, len(data)-n)
	}
	r := &frameReader{buf: data[n:]}
	walk(r)
	return r.close()
}

// frameWriter encodes (see FrameCodec), appending to a byte slice.
type frameWriter struct{ buf []byte }

func (w *frameWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *frameWriter) float(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

func (w *frameWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *frameWriter) Str(s *string)       { w.str(*s) }
func (w *frameWriter) Uint(v *uint64)      { w.uvarint(*v) }
func (w *frameWriter) Int(v *int)          { w.buf = binary.AppendVarint(w.buf, int64(*v)) }
func (w *frameWriter) Float(f *float64)    { w.float(*f) }
func (w *frameWriter) Len(n, _, _ int) int { w.uvarint(uint64(n)); return n }

func (w *frameWriter) Strs(ss *[]string) {
	w.uvarint(uint64(len(*ss)))
	for _, s := range *ss {
		w.str(s)
	}
}

func (w *frameWriter) FloatMap(m *map[string]float64) {
	keys := slices.Sorted(maps.Keys(*m))
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.float((*m)[k])
	}
}

// Partial encodes a partial. Its group keys must have len(By) values and
// its groups numPhys(Phys) states, as every partial the engine builds
// does.
func (w *frameWriter) Partial(pp **Partial) {
	p := *pp
	w.Strs(&p.By)
	w.uvarint(uint64(len(p.Cols)))
	for i, c := range p.Cols {
		w.str(c)
		w.uvarint(uint64(p.Funcs[i]))
		w.uvarint(uint64(p.Phys[i]))
	}
	w.uvarint(uint64(len(p.Groups)))
	for gi := range p.Groups {
		g := &p.Groups[gi]
		for _, v := range g.Key {
			w.value(v)
		}
		for i := range g.Accs {
			w.accState(&g.Accs[i])
		}
	}
}

func (w *frameWriter) value(v Value) {
	if v.Null {
		w.buf = append(w.buf, byte(v.Kind)|valueNull)
		return
	}
	w.buf = append(w.buf, byte(v.Kind))
	switch v.Kind {
	case TypeInt, TypeTime:
		w.buf = binary.AppendVarint(w.buf, v.I)
	case TypeFloat:
		w.float(v.F)
	case TypeString:
		w.str(v.S)
	}
}

func (w *frameWriter) accState(st *AccState) {
	var flags byte
	if st.Seen {
		flags |= accSeen
	}
	if st.Sum.Neg {
		flags |= accSumNeg
	}
	if st.SumSq.Neg {
		flags |= accSumSqNeg
	}
	if math.Float64bits(st.Sum.Special) != 0 {
		flags |= accSumSpecial
	}
	if math.Float64bits(st.SumSq.Special) != 0 {
		flags |= accSumSqSpecial
	}
	if math.Float64bits(st.Min)|math.Float64bits(st.Max) != 0 {
		flags |= accExtremes
	}
	w.buf = append(w.buf, flags)
	w.uvarint(uint64(st.Count))
	w.exact(&st.Sum, flags&accSumSpecial != 0)
	w.exact(&st.SumSq, flags&accSumSqSpecial != 0)
	if flags&accExtremes != 0 {
		w.float(st.Min)
		w.float(st.Max)
	}
}

func (w *frameWriter) exact(st *ExactState, special bool) {
	w.uvarint(uint64(len(st.Digits)))
	if len(st.Digits) > 0 {
		w.uvarint(uint64(st.Lo))
		for _, d := range st.Digits {
			w.buf = binary.LittleEndian.AppendUint32(w.buf, d)
		}
	}
	if special {
		w.float(st.Special)
	}
}

// frameReader decodes (see FrameCodec) input that may be hostile. The
// first malformation is recorded and every later read yields a zero
// value, so a decoder checks once, at the end. Every count is checked
// against the bytes remaining before anything is allocated for it, so
// what a frame makes the reader allocate is bounded by its length.
type frameReader struct {
	buf []byte
	err error
	// digits is a slab the decoded sums' digits are cut from.
	digits []uint32
}

// close reports the first malformation, or trailing bytes.
func (r *frameReader) close() error {
	if r.err == nil && len(r.buf) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	return r.err
}

func (r *frameReader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.buf = nil
}

// next consumes n raw bytes.
func (r *frameReader) next(n int) []byte {
	if n > len(r.buf) {
		r.failf("truncated: want %d bytes, %d left", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *frameReader) byte() byte {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

// uvarint reads an unsigned integer in its shortest encoding.
func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || (n > 1 && r.buf[n-1] == 0) {
		r.failf("malformed varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *frameReader) varint() int64 {
	u := r.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// count reads the length of a list whose elements take at least
// minBytes bytes each: a count the remaining bytes cannot hold is a
// malformation, found before the caller allocates for it.
func (r *frameReader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.buf)/minBytes) {
		r.failf("count %d exceeds the %d bytes left", n, len(r.buf))
		return 0
	}
	return int(n)
}

func (r *frameReader) float() float64 {
	if b := r.next(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (r *frameReader) str() string { return string(r.next(r.count(1))) }

func (r *frameReader) Str(s *string)    { *s = r.str() }
func (r *frameReader) Uint(v *uint64)   { *v = r.uvarint() }
func (r *frameReader) Float(f *float64) { *f = r.float() }

func (r *frameReader) Int(v *int) {
	x := r.varint()
	if int64(int(x)) != x {
		r.failf("integer %d out of range", x)
	}
	*v = int(x)
}

func (r *frameReader) Len(_, minBytes, max int) int {
	n := r.count(minBytes)
	if n > max {
		r.failf("%d elements, at most %d", n, max)
		return 0
	}
	return n
}

func (r *frameReader) Strs(ss *[]string) {
	FrameList(r, ss, 1, math.MaxInt)
	for i := range *ss {
		(*ss)[i] = r.str()
	}
}

func (r *frameReader) FloatMap(m *map[string]float64) {
	n := r.count(9)
	if n == 0 {
		return
	}
	*m = make(map[string]float64, n)
	prev := ""
	for i := range n {
		k := r.str()
		if i > 0 && k <= prev {
			r.failf("map keys out of order")
		}
		(*m)[k], prev = r.float(), k
	}
}

// Partial decodes a partial (nil after a malformation). Beyond the
// layout it checks what merging and finalizing rely on: at least one
// aggregate, known aggregate functions, physical indices below the
// number of aggregates, value kinds, and digit windows inside the range
// a real sum can reach, trimmed as canon trims them.
func (r *frameReader) Partial(pp **Partial) {
	*pp = nil
	p := &Partial{}
	r.Strs(&p.By)
	nAggs := r.count(3)
	if nAggs == 0 {
		r.failf("partial carries no aggregates")
		return
	}
	p.Cols, p.Funcs, p.Phys = make([]string, nAggs), make([]AggFunc, nAggs), make([]int, nAggs)
	for i := range p.Cols {
		p.Cols[i] = r.str()
		if f := r.uvarint(); f <= uint64(AggStddev) {
			p.Funcs[i] = AggFunc(f)
		} else {
			r.failf("unknown aggregate function %d", f)
		}
		if ph := r.uvarint(); ph < uint64(nAggs) {
			p.Phys[i] = int(ph)
		} else {
			r.failf("aggregate %d maps to physical accumulator %d of at most %d", i, ph, nAggs)
		}
	}
	nBy, nPhys := len(p.By), numPhys(p.Phys)
	nGroups := r.count(nBy + nPhys*minAccBytes)
	if r.err != nil {
		return
	}
	keys := make([]Value, nGroups*nBy)
	states := make([]AccState, nGroups*nPhys)
	p.Groups = make([]PartialGroup, nGroups)
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if nBy > 0 {
			g.Key, keys = keys[:nBy:nBy], keys[nBy:]
		}
		for i := range g.Key {
			g.Key[i] = r.value()
		}
		g.Accs, states = states[:nPhys:nPhys], states[nPhys:]
		for i := range g.Accs {
			r.accState(&g.Accs[i])
		}
		if r.err != nil {
			return
		}
	}
	*pp = p
}

func (r *frameReader) value() Value {
	tag := r.byte()
	v := Value{Kind: Type(tag &^ valueNull), Null: tag&valueNull != 0}
	if v.Kind > TypeTime {
		r.failf("unknown value kind %d", v.Kind)
	}
	if v.Null {
		return v
	}
	switch v.Kind {
	case TypeInt, TypeTime:
		v.I = r.varint()
	case TypeFloat:
		v.F = r.float()
	case TypeString:
		v.S = r.str()
	}
	return v
}

func (r *frameReader) accState(st *AccState) {
	flags := r.byte()
	if flags&^accFlags != 0 {
		r.failf("unknown accumulator flags %#x", flags)
	}
	st.Seen = flags&accSeen != 0
	st.Count = int64(r.uvarint())
	r.exact(&st.Sum, flags&accSumNeg != 0, flags&accSumSpecial != 0)
	r.exact(&st.SumSq, flags&accSumSqNeg != 0, flags&accSumSqSpecial != 0)
	if flags&accExtremes != 0 {
		st.Min, st.Max = r.float(), r.float()
		if math.Float64bits(st.Min)|math.Float64bits(st.Max) == 0 {
			r.failf("extremes flagged but zero")
		}
	}
}

func (r *frameReader) exact(st *ExactState, neg, special bool) {
	if n := r.count(4); n > 0 {
		lo := r.uvarint()
		if lo >= exactMaxDigits || lo+uint64(n) > exactMaxDigits {
			r.failf("digit window [%d,%d) beyond the %d an exact sum reaches", lo, lo+uint64(n), exactMaxDigits)
			return
		}
		b := r.next(4 * n)
		if b == nil {
			return
		}
		if len(r.digits) < n {
			// A slab for the sums still to come, bounded by the bytes left.
			r.digits = make([]uint32, max(n, min(1024, len(r.buf)/4+n)))
		}
		st.Digits, r.digits = r.digits[:n:n], r.digits[n:]
		for i := range st.Digits {
			st.Digits[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		if st.Digits[0] == 0 || st.Digits[n-1] == 0 {
			r.failf("exact sum digits not trimmed")
		}
		st.Neg, st.Lo = neg, int32(lo)
	} else if neg {
		r.failf("sign on an empty exact sum")
	}
	if special {
		if st.Special = r.float(); math.Float64bits(st.Special) == 0 {
			r.failf("non-finite part flagged but zero")
		}
	}
}
