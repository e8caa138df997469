package engine

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binding: a grouping set's aggregates to physical accumulators, its
// key columns to key encoders.

// boundAgg is one logical aggregate of a grouping set — an output
// column of its Result and Partial — bound to a table.
type boundAgg struct {
	spec      AggSpec
	filterIdx int // -1 when unfiltered

	// phys indexes the physical accumulator (grouperPlan.phys) that
	// holds this aggregate's state.
	phys int
}

// measKind classifies what a physical accumulator reads per row.
type measKind uint8

const (
	measCount measKind = iota // no value: COUNT(*) or COUNT over a non-numeric column
	measFloat                 // FLOAT measure, direct slice access
	measInt                   // INT measure, converted per row
)

// physAgg is one physical accumulator of a grouping set: the state of
// one (measure column, filter) pair. An accumulator's state depends
// only on which rows reach it and what values they carry, never on the
// aggregate function, so SUM(m), COUNT(m), AVG(m), MIN(m)… over the
// same filter all read one physical accumulator: the scan updates
// physical state once per row, partial() exports it once, and result()
// and Partial.Finalize fan it back out per logical aggregate.
type physAgg struct {
	col  string // measure column; "" for COUNT(*)
	kind measKind
	f64  []float64
	i64  []int64

	// rows indexes grouperPlan.rowSets: the rows this accumulator
	// consumes. The per-group row count of that set IS the accumulator's
	// count, so accumulators over one row set share one counter. meas
	// indexes that row set's gather list (filterSet.meas) for a measure.
	rows int
	meas int

	// full keeps sumsq/min/max/seen besides the sum. Slim suffices when
	// every user is a result-only COUNT/SUM/AVG; exported partials
	// serialize the whole state, so they always bind full.
	full bool

	// presence marks COUNT over a non-numeric column, whose state is
	// seen with min = max = 0 (what adding a zero per row leaves behind);
	// COUNT(*) never sets seen.
	presence bool
}

// bindAggs binds a grouping set's aggregates: the logical list in
// output order, and the deduplicated physical accumulators behind it.
// rowSets lists the scan row sets (indices into fs.rowSets) those
// accumulators consume.
func bindAggs(t *Table, aggs []AggSpec, fs *filterSet, resultsOnly bool) (logical []boundAgg, phys []physAgg, rowSets []int, err error) {
	type physKey struct {
		column string
		filter int
	}
	byKey := map[physKey]int{}
	localRows := func(rs rowSet) int {
		global := fs.rowSetIndex(rs)
		for i, have := range rowSets {
			if have == global {
				return i
			}
		}
		rowSets = append(rowSets, global)
		return len(rowSets) - 1
	}
	logical = make([]boundAgg, len(aggs))
	for i, a := range aggs {
		ba := boundAgg{spec: a, filterIdx: -1}
		if a.Filter != nil {
			idx, ok := fs.index[a.Filter]
			if !ok {
				return nil, nil, nil, fmt.Errorf("engine: internal: filter for %s not registered", a.Name())
			}
			ba.filterIdx = idx
		}
		pa := physAgg{col: a.Column, kind: measCount}
		rs := rowSet{filter: ba.filterIdx}
		if a.Column == "" {
			if a.Func != AggCount {
				return nil, nil, nil, fmt.Errorf("engine: %s requires a column", a.Func)
			}
		} else {
			col, err := t.Column(a.Column)
			if err != nil {
				return nil, nil, nil, err
			}
			if a.Func != AggCount && !col.Type().Numeric() {
				return nil, nil, nil, fmt.Errorf("engine: %s(%s): column is %v, need numeric", a.Func, a.Column, col.Type())
			}
			switch c := col.(type) {
			case *FloatColumn:
				pa.kind, pa.f64, rs.nulls = measFloat, c.Floats(), activeNulls(&c.nulls)
			case *IntColumn:
				pa.kind, pa.i64, rs.nulls = measInt, c.Ints(), activeNulls(&c.nulls)
			default:
				nb := columnNulls(t, a.Column)
				if nb == nil {
					return nil, nil, nil, fmt.Errorf("engine: cannot aggregate column %q: unsupported column kind %T", a.Column, col)
				}
				pa.presence, rs.nulls = true, activeNulls(nb)
			}
		}
		key := physKey{a.Column, ba.filterIdx}
		pi, ok := byKey[key]
		if !ok {
			pi = len(phys)
			byKey[key] = pi
			pa.rows = localRows(rs)
			if pa.kind != measCount {
				pa.meas = fs.measIndex(rowSets[pa.rows], measCol{col: pa.col, f64: pa.f64, i64: pa.i64})
			}
			phys = append(phys, pa)
		}
		slimUser := resultsOnly && (a.Func == AggCount || a.Func == AggSum || a.Func == AggAvg)
		if !slimUser {
			phys[pi].full = true
		}
		ba.phys = pi
		logical[i] = ba
	}
	return logical, phys, rowSets, nil
}

// keyEncoder appends row's key bytes for one column and materializes
// the boxed key value. Encoders are stateless and shared via the plan.
type keyEncoder struct {
	encode func(row int, buf []byte) []byte
	value  func(row int) Value
}

// binFloor returns the lower bound of v's bin for the given width.
func binFloor(v, width float64) float64 { return math.Floor(v/width) * width }

// canonFloat maps every float that prints — and compares — as the same
// group key to one bit pattern: -0 becomes +0 (binFloor(-0, w) is -0)
// and every NaN becomes the canonical one. Group identity is decided on
// key bytes, so without this one visible key could head several groups.
func canonFloat(v float64) float64 {
	if v == 0 {
		return 0
	}
	if v != v {
		return math.NaN()
	}
	return v
}

func appendU64(buf []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(buf, tmp[:]...)
}

func newKeyEncoder(col Column, binWidth float64) (keyEncoder, error) {
	switch c := col.(type) {
	case *StringColumn:
		codes := c.Codes()
		return keyEncoder{
			encode: func(row int, buf []byte) []byte {
				var tmp [4]byte
				binary.LittleEndian.PutUint32(tmp[:], uint32(codes[row]))
				return append(buf, tmp[:]...)
			},
			value: func(row int) Value { return c.Value(row) },
		}, nil
	case *IntColumn:
		return int64KeyEncoder(c.Ints(), activeNulls(&c.nulls), binWidth, TypeInt), nil
	case *TimeColumn:
		return int64KeyEncoder(c.Nanos(), activeNulls(&c.nulls), binWidth, TypeTime), nil
	case *FloatColumn:
		vals := c.Floats()
		nb := activeNulls(&c.nulls)
		bin := canonFloat
		if binWidth > 0 {
			width := binWidth
			bin = func(v float64) float64 { return canonFloat(binFloor(v, width)) }
		}
		if nb == nil {
			// No NULLs: skip the per-row null check entirely.
			return keyEncoder{
				encode: func(row int, buf []byte) []byte {
					return append(appendU64(buf, math.Float64bits(bin(vals[row]))), 0)
				},
				value: func(row int) Value { return Float(bin(vals[row])) },
			}, nil
		}
		return keyEncoder{
			encode: func(row int, buf []byte) []byte {
				if nb.get(row) {
					return append(appendU64(buf, 0), 1)
				}
				return append(appendU64(buf, math.Float64bits(bin(vals[row]))), 0)
			},
			value: func(row int) Value {
				if nb.get(row) {
					return NullValue(TypeFloat)
				}
				return Float(bin(vals[row]))
			},
		}, nil
	}
	// A silent catch-all here once collapsed every row of an unknown
	// column kind into one bogus group (empty key bytes, NULL value);
	// unknown kinds are a planning error, not a degenerate group-by.
	return keyEncoder{}, fmt.Errorf("engine: cannot group by column %q: unsupported column kind %T", col.Name(), col)
}

// int64KeyEncoder builds the key encoder for INT/TIME columns. Integral
// bins: width rounded up to at least 1 so bin lower bounds stay
// integers. The null branch is resolved once here, not per row.
func int64KeyEncoder(vals []int64, nb *nullBitmap, binWidth float64, typ Type) keyEncoder {
	w := int64(binWidth)
	if w < 1 {
		w = 1
	}
	lower := func(v int64) int64 { return v }
	if w > 1 {
		lower = func(v int64) int64 { return floorDiv(v, w) * w }
	}
	mk := func(v int64) Value { return Int(v) }
	if typ == TypeTime {
		mk = func(v int64) Value { return Value{Kind: TypeTime, I: v} }
	}
	if nb == nil {
		return keyEncoder{
			encode: func(row int, buf []byte) []byte {
				return append(appendU64(buf, uint64(lower(vals[row]))), 0)
			},
			value: func(row int) Value { return mk(lower(vals[row])) },
		}
	}
	return keyEncoder{
		encode: func(row int, buf []byte) []byte {
			if nb.get(row) {
				return append(appendU64(buf, 0), 1)
			}
			return append(appendU64(buf, uint64(lower(vals[row]))), 0)
		},
		value: func(row int) Value {
			if nb.get(row) {
				return NullValue(typ)
			}
			return mk(lower(vals[row]))
		},
	}
}
