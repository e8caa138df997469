package engine

import (
	"fmt"
	"math"
	"strconv"
)

// ParseRows converts decoded JSON rows into boxed values in schema
// order, validating against the table schema. The conversion is
// deterministic, so a coordinator and its replicas produce identical
// columns (and therefore identical content hashes) from the same wire
// payload.
func (t *Table) ParseRows(rows [][]any) ([][]Value, error) {
	schema := t.Schema()
	out := make([][]Value, len(rows))
	for ri, raw := range rows {
		if len(raw) != len(schema) {
			return nil, fmt.Errorf("engine: ingest row %d has %d fields, table %q has %d columns",
				ri, len(raw), t.name, len(schema))
		}
		vals := make([]Value, len(raw))
		for ci, f := range raw {
			v, err := coerceField(f, schema[ci].Type)
			if err != nil {
				return nil, fmt.Errorf("engine: ingest row %d column %q: %w", ri, schema[ci].Name, err)
			}
			vals[ci] = v
		}
		out[ri] = vals
	}
	return out, nil
}

// coerceField converts one JSON field — nil, a string or a number — to
// the column type. A string is read exactly (no CSV trimming, "" is not
// NULL): a STRING keeps every byte, a FLOAT reads "NaN" and "±Inf".
func coerceField(f any, typ Type) (Value, error) {
	switch v := f.(type) {
	case nil:
		return NullValue(typ), nil
	case string:
		return parseText(v, typ)
	case float64:
		switch i := int64(v); {
		case typ == TypeFloat:
			return Float(v), nil
		case typ != TypeInt:
			return Value{}, fmt.Errorf("%v column needs a string, got number %v", typ, v)
		case float64(i) == v && math.Abs(v) <= 1<<53:
			return Int(i), nil
		}
		return Value{}, fmt.Errorf("value %v is not an exact integer", v)
	}
	return Value{}, fmt.Errorf("unsupported field type %T", f)
}

// FormatRowsWire renders boxed rows into the JSON shape ParseRows
// reads back value for value, the form a coordinator forwards a typed
// batch in. What a JSON number cannot carry is a string: an INT beyond
// ±2^53, a non-finite FLOAT ("NaN", "+Inf", "-Inf"; a NaN re-parses as
// the canonical NaN, whatever its payload bits were).
func FormatRowsWire(rows [][]Value) [][]any {
	out := make([][]any, len(rows))
	for ri, vals := range rows {
		raw := make([]any, len(vals))
		for ci, v := range vals {
			if v.Null {
				continue // nil
			}
			switch v.Kind {
			case TypeInt:
				if v.I > 1<<53 || v.I < -(1<<53) {
					raw[ci] = strconv.FormatInt(v.I, 10)
				} else {
					raw[ci] = float64(v.I)
				}
			case TypeFloat:
				if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
					raw[ci] = strconv.FormatFloat(v.F, 'g', -1, 64)
				} else {
					raw[ci] = v.F
				}
			default:
				// Strings verbatim, timestamps in RFC 3339Nano.
				raw[ci] = v.Format()
			}
		}
		out[ri] = raw
	}
	return out
}
