// Package engine implements the embedded columnar database substrate that
// SeeDB runs on. It provides typed in-memory columns (with dictionary
// encoding for strings and null bitmaps), tables, a catalog, predicate
// expressions, and a query executor supporting filtered scans, Bernoulli
// sampling, hash group-by aggregation with multi-attribute keys, grouping
// sets, per-aggregate filters (conditional aggregation), and parallel
// partitioned execution.
//
// The engine plays the role of the "Backend DBMS" in the SeeDB
// architecture (Figure 4 of the paper): SeeDB's query generator and
// optimizer emit queries against this engine, and the view processor
// consumes its results.
package engine

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Type identifies the storage type of a column.
type Type int

const (
	// TypeInt is a 64-bit signed integer column.
	TypeInt Type = iota
	// TypeFloat is a 64-bit IEEE-754 column.
	TypeFloat
	// TypeString is a dictionary-encoded string column.
	TypeString
	// TypeTime is a timestamp column stored as Unix nanoseconds.
	TypeTime
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "STRING"
	case TypeTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Numeric reports whether values of this type can act as measures
// (aggregation inputs other than COUNT).
func (t Type) Numeric() bool { return t == TypeInt || t == TypeFloat }

// Value is a dynamically typed scalar. A Value is the unit of data
// exchanged at the engine boundary: row construction, predicate
// constants, and query results. The zero Value is a NULL of type INT.
type Value struct {
	Kind Type
	Null bool
	I    int64   // TypeInt and TypeTime (Unix nanoseconds)
	F    float64 // TypeFloat
	S    string  // TypeString
}

// NullValue returns a NULL of the given type.
func NullValue(t Type) Value { return Value{Kind: t, Null: true} }

// Int returns an INT value.
func Int(v int64) Value { return Value{Kind: TypeInt, I: v} }

// Float returns a FLOAT value.
func Float(v float64) Value { return Value{Kind: TypeFloat, F: v} }

// String returns a STRING value.
func String(v string) Value { return Value{Kind: TypeString, S: v} }

// Time returns a TIMESTAMP value.
func Time(v time.Time) Value { return Value{Kind: TypeTime, I: v.UnixNano()} }

// AsFloat converts a numeric value to float64. It reports false for
// NULLs and non-numeric types.
func (v Value) AsFloat() (float64, bool) {
	if v.Null {
		return 0, false
	}
	switch v.Kind {
	case TypeInt:
		return float64(v.I), true
	case TypeFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// AsTime converts a TIMESTAMP value to time.Time. It reports false for
// NULLs and other types.
func (v Value) AsTime() (time.Time, bool) {
	if v.Null || v.Kind != TypeTime {
		return time.Time{}, false
	}
	return time.Unix(0, v.I), true
}

// Format renders the value as a human-readable string; NULLs render as
// "NULL". Used by result printing and the CSV writer.
func (v Value) Format() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			// Integral and exact in an int64: what FormatFloat's 'f'
			// with one decimal prints, without its float conversion.
			if v.F == 0 && math.Signbit(v.F) {
				return "-0.0"
			}
			return strconv.FormatInt(int64(v.F), 10) + ".0"
		}
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.S
	case TypeTime:
		// RFC3339Nano renders whole seconds identically to RFC3339 and
		// keeps sub-second precision otherwise — predicates differing
		// only below the second must not collapse to one rendering
		// (cache keys are built from predicate strings).
		return time.Unix(0, v.I).UTC().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// Equal reports deep equality between two values, including type and
// null status. NULLs of the same type compare equal to each other (this
// is group-by semantics, not SQL ternary logic).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	if v.Null || o.Null {
		return v.Null == o.Null
	}
	switch v.Kind {
	case TypeInt, TypeTime:
		return v.I == o.I
	case TypeFloat:
		return v.F == o.F
	case TypeString:
		return v.S == o.S
	}
	return false
}

// Compare orders two non-null values of the same type: -1, 0, +1.
// NULLs sort before all non-NULL values.
func (v Value) Compare(o Value) int {
	if v.Null && o.Null {
		return 0
	}
	if v.Null {
		return -1
	}
	if o.Null {
		return 1
	}
	switch v.Kind {
	case TypeInt, TypeTime:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case TypeFloat:
		switch {
		case v.F < o.F:
			return -1
		case v.F > o.F:
			return 1
		}
		// Equal, or NaN is involved. NaN sorts before every other
		// non-NULL float (and equal to NaN): callers order rows with
		// this, and without a total order a NaN group key lands
		// wherever the sort's input order leaves it.
		vNaN, oNaN := v.F != v.F, o.F != o.F
		switch {
		case vNaN && !oNaN:
			return -1
		case oNaN && !vNaN:
			return 1
		}
		return 0
	case TypeString:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	}
	return 0
}
