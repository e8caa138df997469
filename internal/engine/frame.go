package engine

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
)

// The binary frame layout partials and predicates cross processes in.
// Counts, lengths and unsigned integers are uvarints, signed integers
// zig-zag varints, floats their raw IEEE-754 bits (8 bytes,
// little-endian — the sign of zero, ±Inf and NaN payloads travel as
// they are), strings a uvarint length and the bytes, and exact sums
// exactFloat's canonical base-2^32 digits (4 bytes each,
// little-endian). Every encoding is canonical: a frame the reader
// accepts re-encodes to the same bytes.
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
//
// A Predicate is a tag byte (pred* below) followed by
//
//	Compare:          column, operator as a uvarint, Value
//	In, NotIn:        column, count, Values
//	IsNull/IsNotNull: column
//	And, Or:          count, Predicates
//	Not:              Predicate
//
// nested at most MaxPredicateDepth deep. Literals are Values, so −0,
// NaN payloads and ±Inf travel as bits.
const valueNull = 1 << 7

const (
	predCompare = iota + 1
	predIn
	predNotIn
	predIsNull
	predIsNotNull
	predAnd
	predOr
	predNot
	// predNone tags a predicate CheckFramePredicate refuses; no reader
	// accepts it.
	predNone
)

// MaxPredicateDepth bounds how deep a predicate with a frame form
// nests (a lone comparison is depth 1).
const MaxPredicateDepth = 64

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
	// Predicate walks a predicate tree CheckFramePredicate accepts.
	Predicate(*Predicate)
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
	r := &frameReader{Decoder: Decoder{buf: data[n:]}}
	walk(r)
	return r.Close()
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

// Predicate encodes a predicate tree; one CheckFramePredicate refuses
// encodes as predNone, which no reader accepts.
func (w *frameWriter) Predicate(pp *Predicate) {
	switch p := (*pp).(type) {
	case *ComparePred:
		w.buf = append(w.buf, predCompare)
		w.str(p.Column)
		w.uvarint(uint64(p.Op))
		w.value(p.Value)
	case *InPred:
		w.buf = append(w.buf, predIn+byte(b2u(p.Negate)))
		w.str(p.Column)
		w.uvarint(uint64(len(p.Values)))
		for _, v := range p.Values {
			w.value(v)
		}
	case *NullPred:
		w.buf = append(w.buf, predIsNull+byte(b2u(p.Negate)))
		w.str(p.Column)
	case *AndPred:
		w.buf = append(w.buf, predAnd)
		w.predicates(p.Children)
	case *OrPred:
		w.buf = append(w.buf, predOr)
		w.predicates(p.Children)
	case *NotPred:
		w.buf = append(w.buf, predNot)
		w.Predicate(&p.Child)
	default:
		w.buf = append(w.buf, predNone)
	}
}

func (w *frameWriter) predicates(ps []Predicate) {
	w.uvarint(uint64(len(ps)))
	for i := range ps {
		w.Predicate(&ps[i])
	}
}

// CheckFramePredicate reports why p has no frame form: a predicate type
// the engine does not define (a caller's own, runnable only where it
// was built) or nesting deeper than MaxPredicateDepth.
func CheckFramePredicate(p Predicate) error { return checkFramePredicate(p, 1) }

func checkFramePredicate(p Predicate, depth int) error {
	if depth > MaxPredicateDepth {
		return fmt.Errorf("engine: predicate nests deeper than %d", MaxPredicateDepth)
	}
	var children []Predicate
	switch p := p.(type) {
	case *ComparePred, *InPred, *NullPred:
		return nil
	case *AndPred:
		children = p.Children
	case *OrPred:
		children = p.Children
	case *NotPred:
		children = []Predicate{p.Child}
	default:
		return fmt.Errorf("engine: predicate %T has no frame form", p)
	}
	for _, c := range children {
		if err := checkFramePredicate(c, depth+1); err != nil {
			return err
		}
	}
	return nil
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

// frameReader decodes (see FrameCodec) input that may be hostile, on
// a Decoder: a decoder checks once, at the end.
type frameReader struct {
	Decoder
	// digits is a slab the decoded sums' digits are cut from.
	digits []uint32
}

func (r *frameReader) float() float64 { return math.Float64frombits(r.U64()) }

func (r *frameReader) Str(s *string)    { *s = r.Text() }
func (r *frameReader) Uint(v *uint64)   { *v = r.Uvarint() }
func (r *frameReader) Float(f *float64) { *f = r.float() }

func (r *frameReader) Int(v *int) {
	x := r.Varint()
	if int64(int(x)) != x {
		r.Failf("integer %d out of range", x)
	}
	*v = int(x)
}

func (r *frameReader) Len(_, minBytes, max int) int {
	n := r.Count(minBytes)
	if n > max {
		r.Failf("%d elements, at most %d", n, max)
		return 0
	}
	return n
}

func (r *frameReader) Strs(ss *[]string) {
	FrameList(r, ss, 1, math.MaxInt)
	for i := range *ss {
		(*ss)[i] = r.Text()
	}
}

func (r *frameReader) FloatMap(m *map[string]float64) {
	n := r.Count(9)
	if n == 0 {
		return
	}
	*m = make(map[string]float64, n)
	prev := ""
	for i := range n {
		k := r.Text()
		if i > 0 && k <= prev {
			r.Failf("map keys out of order")
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
	nAggs := r.Count(3)
	if nAggs == 0 {
		r.Failf("partial carries no aggregates")
		return
	}
	p.Cols, p.Funcs, p.Phys = make([]string, nAggs), make([]AggFunc, nAggs), make([]int, nAggs)
	for i := range p.Cols {
		p.Cols[i] = r.Text()
		if f := r.Uvarint(); f <= uint64(AggStddev) {
			p.Funcs[i] = AggFunc(f)
		} else {
			r.Failf("unknown aggregate function %d", f)
		}
		if ph := r.Uvarint(); ph < uint64(nAggs) {
			p.Phys[i] = int(ph)
		} else {
			r.Failf("aggregate %d maps to physical accumulator %d of at most %d", i, ph, nAggs)
		}
	}
	nBy, nPhys := len(p.By), numPhys(p.Phys)
	nGroups := r.Count(nBy + nPhys*minAccBytes)
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

// Predicate decodes a predicate tree (nil after a malformation).
func (r *frameReader) Predicate(pp *Predicate) { *pp = r.predicate(1) }

func (r *frameReader) predicate(depth int) Predicate {
	if depth > MaxPredicateDepth {
		r.Failf("predicate nests deeper than %d", MaxPredicateDepth)
	}
	if r.err != nil {
		return nil
	}
	switch tag := r.Byte(); tag {
	case predCompare:
		p := &ComparePred{Column: r.Text()}
		if op := r.Uvarint(); op <= uint64(OpGe) {
			p.Op = CmpOp(op)
		} else {
			r.Failf("unknown comparison operator %d", op)
		}
		p.Value = r.value()
		return p
	case predIn, predNotIn:
		p := &InPred{Column: r.Text(), Negate: tag == predNotIn}
		FrameList(r, &p.Values, 1, math.MaxInt)
		for i := range p.Values {
			p.Values[i] = r.value()
		}
		return p
	case predIsNull, predIsNotNull:
		return &NullPred{Column: r.Text(), Negate: tag == predIsNotNull}
	case predAnd, predOr:
		// Grown child by child, not sized from the count: every
		// enclosing level's slice stays live while a child decodes, so
		// slices sized from counts that each claim the bytes left would
		// cost depth × 16 bytes per input byte.
		n := r.Count(1)
		var children []Predicate
		for i := 0; i < n && r.err == nil; i++ {
			children = append(children, r.predicate(depth+1))
		}
		if tag == predAnd {
			return &AndPred{Children: children}
		}
		return &OrPred{Children: children}
	case predNot:
		return &NotPred{Child: r.predicate(depth + 1)}
	default:
		r.Failf("unknown predicate tag %d", tag)
		return nil
	}
}

func (r *frameReader) value() Value {
	tag := r.Byte()
	v := Value{Kind: Type(tag &^ valueNull), Null: tag&valueNull != 0}
	if v.Kind > TypeTime {
		r.Failf("unknown value kind %d", v.Kind)
	}
	if v.Null {
		return v
	}
	switch v.Kind {
	case TypeInt, TypeTime:
		v.I = r.Varint()
	case TypeFloat:
		v.F = r.float()
	case TypeString:
		v.S = r.Text()
	}
	return v
}

func (r *frameReader) accState(st *AccState) {
	flags := r.Byte()
	if flags&^accFlags != 0 {
		r.Failf("unknown accumulator flags %#x", flags)
	}
	st.Seen = flags&accSeen != 0
	st.Count = int64(r.Uvarint())
	r.exact(&st.Sum, flags&accSumNeg != 0, flags&accSumSpecial != 0)
	r.exact(&st.SumSq, flags&accSumSqNeg != 0, flags&accSumSqSpecial != 0)
	if flags&accExtremes != 0 {
		st.Min, st.Max = r.float(), r.float()
		if math.Float64bits(st.Min)|math.Float64bits(st.Max) == 0 {
			r.Failf("extremes flagged but zero")
		}
	}
}

func (r *frameReader) exact(st *ExactState, neg, special bool) {
	if n := r.Count(4); n > 0 {
		lo := r.Uvarint()
		if lo >= exactMaxDigits || lo+uint64(n) > exactMaxDigits {
			r.Failf("digit window [%d,%d) beyond the %d an exact sum reaches", lo, lo+uint64(n), exactMaxDigits)
			return
		}
		b := r.Next(4 * n)
		if b == nil {
			return
		}
		if len(r.digits) < n {
			// A slab for the sums still to come, bounded by the bytes left.
			r.digits = make([]uint32, max(n, min(1024, r.Left()/4+n)))
		}
		st.Digits, r.digits = r.digits[:n:n], r.digits[n:]
		for i := range st.Digits {
			st.Digits[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		if st.Digits[0] == 0 || st.Digits[n-1] == 0 {
			r.Failf("exact sum digits not trimmed")
		}
		st.Neg, st.Lo = neg, int32(lo)
	} else if neg {
		r.Failf("sign on an empty exact sum")
	}
	if special {
		if st.Special = r.float(); math.Float64bits(st.Special) == 0 {
			r.Failf("non-finite part flagged but zero")
		}
	}
}
