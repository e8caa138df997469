package engine

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// LoadCSV reads rows from r into a new table. The first record must be
// a header. Column types are either supplied (len(types) must match the
// header) or inferred from the first data record: integers, floats,
// RFC-3339 timestamps, then strings. Empty fields load as NULL.
func LoadCSV(name string, r io.Reader, types []Type) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("engine: csv %q: reading header: %w", name, err)
	}
	var records [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("engine: csv %q: %w", name, err)
		}
		records = append(records, rec)
	}
	if types == nil {
		types = inferTypes(header, records)
	}
	if len(types) != len(header) {
		return nil, fmt.Errorf("engine: csv %q: %d types for %d columns", name, len(types), len(header))
	}
	schema := make(Schema, len(header))
	for i, h := range header {
		schema[i] = ColumnDef{Name: strings.TrimSpace(h), Type: types[i]}
	}
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	loader := t.StartLoad()
	for rowIdx, rec := range records {
		if len(rec) != len(header) {
			_ = loader.Close()
			return nil, fmt.Errorf("engine: csv %q row %d: %d fields, want %d", name, rowIdx+1, len(rec), len(header))
		}
		for i, field := range rec {
			col := loader.Column(i)
			v, err := parseField(field, types[i])
			if err != nil {
				_ = loader.Close()
				return nil, fmt.Errorf("engine: csv %q row %d col %q: %w", name, rowIdx+1, header[i], err)
			}
			if err := col.Append(v); err != nil {
				_ = loader.Close()
				return nil, err
			}
		}
	}
	if err := loader.Close(); err != nil {
		return nil, err
	}
	return t, nil
}

// inferTypes guesses column types from the first non-empty value of
// each column, falling back to STRING.
func inferTypes(header []string, records [][]string) []Type {
	types := make([]Type, len(header))
	for i := range header {
		types[i] = TypeString
		for _, rec := range records {
			f := strings.TrimSpace(rec[i])
			if f == "" {
				continue
			}
			if _, err := strconv.ParseInt(f, 10, 64); err == nil {
				types[i] = TypeInt
			} else if _, err := strconv.ParseFloat(f, 64); err == nil {
				types[i] = TypeFloat
			} else if _, err := time.Parse(time.RFC3339, f); err == nil {
				types[i] = TypeTime
			} else {
				types[i] = TypeString
			}
			break
		}
	}
	return types
}

// parseField reads one CSV field: trimmed, and empty is NULL.
func parseField(field string, t Type) (Value, error) {
	f := strings.TrimSpace(field)
	if f == "" {
		return NullValue(t), nil
	}
	return parseText(f, t)
}

// parseText reads f exactly as a value of type t.
func parseText(f string, t Type) (Value, error) {
	switch t {
	case TypeInt:
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as INT: %w", f, err)
		}
		return Int(v), nil
	case TypeFloat:
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as FLOAT: %w", f, err)
		}
		return Float(v), nil
	case TypeTime:
		ts, err := time.Parse(time.RFC3339, f)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as TIMESTAMP: %w", f, err)
		}
		return Time(ts), nil
	default:
		return String(f), nil
	}
}
