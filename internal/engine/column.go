package engine

import (
	"fmt"
	"time"
)

// Column is a typed, growable vector of values. Implementations store
// data columnar-style (one contiguous slice per column) which makes the
// grouped-aggregation scans that dominate SeeDB's workload cache
// friendly.
type Column interface {
	// Name returns the column's name within its table.
	Name() string
	// Type returns the storage type.
	Type() Type
	// Len returns the number of rows.
	Len() int
	// Value materializes row i as a dynamic Value.
	Value(i int) Value
	// IsNull reports whether row i is NULL.
	IsNull(i int) bool
	// Append adds a value; it returns an error on a type mismatch.
	// Appending a NULL Value of any kind stores NULL.
	Append(v Value) error
	// AppendNull adds a NULL row.
	AppendNull()
	// clone returns a deep copy with a possibly different name.
	clone(name string) Column
	// gather returns a new column containing rows[sel] in order.
	gather(name string, sel []int32) Column
}

// columnAppender is a Column that can append every row of src, a
// column of its own type, in place (the engine's column types).
type columnAppender interface {
	appendColumn(src Column)
}

// NewColumn constructs an empty column of the given type.
func NewColumn(name string, t Type) Column {
	switch t {
	case TypeInt:
		return &IntColumn{name: name}
	case TypeFloat:
		return &FloatColumn{name: name}
	case TypeString:
		return NewStringColumn(name)
	case TypeTime:
		return &TimeColumn{name: name}
	default:
		panic(fmt.Sprintf("engine: unknown column type %v", t))
	}
}

// ---------------------------------------------------------------------
// IntColumn

// IntColumn stores 64-bit integers.
type IntColumn struct {
	name  string
	vals  []int64
	nulls nullBitmap
}

// Name implements Column.
func (c *IntColumn) Name() string { return c.name }

// Type implements Column.
func (c *IntColumn) Type() Type { return TypeInt }

// Len implements Column.
func (c *IntColumn) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *IntColumn) IsNull(i int) bool { return c.nulls.get(i) }

// Value implements Column.
func (c *IntColumn) Value(i int) Value {
	if c.nulls.get(i) {
		return NullValue(TypeInt)
	}
	return Int(c.vals[i])
}

// Append implements Column.
func (c *IntColumn) Append(v Value) error {
	if v.Null {
		c.AppendNull()
		return nil
	}
	if v.Kind != TypeInt {
		return fmt.Errorf("engine: column %q is INT, got %v", c.name, v.Kind)
	}
	c.vals = append(c.vals, v.I)
	return nil
}

// AppendNull implements Column.
func (c *IntColumn) AppendNull() {
	c.nulls.set(len(c.vals))
	c.vals = append(c.vals, 0)
}

// AppendInt adds a non-null integer without boxing.
func (c *IntColumn) AppendInt(v int64) { c.vals = append(c.vals, v) }

// Ints exposes the raw value slice; NULL positions hold 0.
func (c *IntColumn) Ints() []int64 { return c.vals }

func (c *IntColumn) clone(name string) Column {
	vals := make([]int64, len(c.vals))
	copy(vals, c.vals)
	return &IntColumn{name: name, vals: vals, nulls: c.nulls.clone()}
}

func (c *IntColumn) appendColumn(src Column) {
	o := src.(*IntColumn)
	c.nulls.appendFrom(len(c.vals), &o.nulls)
	c.vals = append(c.vals, o.vals...)
}

func (c *IntColumn) gather(name string, sel []int32) Column {
	out := &IntColumn{name: name, vals: make([]int64, 0, len(sel))}
	hasNulls := c.nulls.anySet()
	for _, i := range sel {
		if hasNulls && c.nulls.get(int(i)) {
			out.AppendNull()
			continue
		}
		out.vals = append(out.vals, c.vals[i])
	}
	return out
}

// ---------------------------------------------------------------------
// FloatColumn

// FloatColumn stores 64-bit floats.
type FloatColumn struct {
	name  string
	vals  []float64
	nulls nullBitmap
}

// Name implements Column.
func (c *FloatColumn) Name() string { return c.name }

// Type implements Column.
func (c *FloatColumn) Type() Type { return TypeFloat }

// Len implements Column.
func (c *FloatColumn) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *FloatColumn) IsNull(i int) bool { return c.nulls.get(i) }

// Value implements Column.
func (c *FloatColumn) Value(i int) Value {
	if c.nulls.get(i) {
		return NullValue(TypeFloat)
	}
	return Float(c.vals[i])
}

// Append implements Column.
func (c *FloatColumn) Append(v Value) error {
	if v.Null {
		c.AppendNull()
		return nil
	}
	switch v.Kind {
	case TypeFloat:
		c.vals = append(c.vals, v.F)
	case TypeInt: // implicit widening, convenient for loaders
		c.vals = append(c.vals, float64(v.I))
	default:
		return fmt.Errorf("engine: column %q is FLOAT, got %v", c.name, v.Kind)
	}
	return nil
}

// AppendNull implements Column.
func (c *FloatColumn) AppendNull() {
	c.nulls.set(len(c.vals))
	c.vals = append(c.vals, 0)
}

// AppendFloat adds a non-null float without boxing.
func (c *FloatColumn) AppendFloat(v float64) { c.vals = append(c.vals, v) }

// Floats exposes the raw value slice; NULL positions hold 0.
func (c *FloatColumn) Floats() []float64 { return c.vals }

func (c *FloatColumn) clone(name string) Column {
	vals := make([]float64, len(c.vals))
	copy(vals, c.vals)
	return &FloatColumn{name: name, vals: vals, nulls: c.nulls.clone()}
}

func (c *FloatColumn) appendColumn(src Column) {
	o := src.(*FloatColumn)
	c.nulls.appendFrom(len(c.vals), &o.nulls)
	c.vals = append(c.vals, o.vals...)
}

func (c *FloatColumn) gather(name string, sel []int32) Column {
	out := &FloatColumn{name: name, vals: make([]float64, 0, len(sel))}
	hasNulls := c.nulls.anySet()
	for _, i := range sel {
		if hasNulls && c.nulls.get(int(i)) {
			out.AppendNull()
			continue
		}
		out.vals = append(out.vals, c.vals[i])
	}
	return out
}

// ---------------------------------------------------------------------
// StringColumn (dictionary encoded)

// StringColumn stores strings dictionary-encoded: each row holds a
// 32-bit code into a per-column dictionary. Dictionary encoding is what
// lets group-by on a string attribute run as fast integer hashing, and
// gives distinct-count metadata for free (the dictionary size).
type StringColumn struct {
	name  string
	codes []int32
	dict  []string
	index map[string]int32
	nulls nullBitmap
}

// NewStringColumn constructs an empty dictionary-encoded string column.
func NewStringColumn(name string) *StringColumn {
	return &StringColumn{name: name, index: make(map[string]int32)}
}

// Name implements Column.
func (c *StringColumn) Name() string { return c.name }

// Type implements Column.
func (c *StringColumn) Type() Type { return TypeString }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.codes) }

// IsNull implements Column.
func (c *StringColumn) IsNull(i int) bool { return c.nulls.get(i) }

// Value implements Column.
func (c *StringColumn) Value(i int) Value {
	if c.nulls.get(i) {
		return NullValue(TypeString)
	}
	return String(c.dict[c.codes[i]])
}

// Append implements Column.
func (c *StringColumn) Append(v Value) error {
	if v.Null {
		c.AppendNull()
		return nil
	}
	if v.Kind != TypeString {
		return fmt.Errorf("engine: column %q is STRING, got %v", c.name, v.Kind)
	}
	c.AppendString(v.S)
	return nil
}

// AppendNull implements Column.
func (c *StringColumn) AppendNull() {
	c.nulls.set(len(c.codes))
	c.codes = append(c.codes, -1)
}

// AppendString adds a non-null string, interning it in the dictionary.
func (c *StringColumn) AppendString(s string) {
	code, ok := c.index[s]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, s)
		c.index[s] = code
	}
	c.codes = append(c.codes, code)
}

// Codes exposes the raw dictionary codes; NULL rows hold -1.
func (c *StringColumn) Codes() []int32 { return c.codes }

// Dict exposes the dictionary. Callers must not mutate it.
func (c *StringColumn) Dict() []string { return c.dict }

// CodeOf returns the dictionary code for s, or -1 if s never appears.
func (c *StringColumn) CodeOf(s string) int32 {
	if code, ok := c.index[s]; ok {
		return code
	}
	return -1
}

// Cardinality returns the dictionary size (number of distinct non-null
// strings ever appended).
func (c *StringColumn) Cardinality() int { return len(c.dict) }

func (c *StringColumn) clone(name string) Column {
	codes := make([]int32, len(c.codes))
	copy(codes, c.codes)
	dict := make([]string, len(c.dict))
	copy(dict, c.dict)
	index := make(map[string]int32, len(c.index))
	for k, v := range c.index {
		index[k] = v
	}
	return &StringColumn{name: name, codes: codes, dict: dict, index: index, nulls: c.nulls.clone()}
}

// appendColumn re-codes src's rows against c's dictionary: one
// intern per distinct string of src, not per row.
func (c *StringColumn) appendColumn(src Column) {
	o := src.(*StringColumn)
	recode := make([]int32, len(o.dict))
	for i, s := range o.dict {
		code, ok := c.index[s]
		if !ok {
			code = int32(len(c.dict))
			c.dict = append(c.dict, s)
			c.index[s] = code
		}
		recode[i] = code
	}
	c.nulls.appendFrom(len(c.codes), &o.nulls)
	for _, code := range o.codes {
		if code >= 0 {
			code = recode[code]
		}
		c.codes = append(c.codes, code)
	}
}

func (c *StringColumn) gather(name string, sel []int32) Column {
	out := NewStringColumn(name)
	out.codes = make([]int32, 0, len(sel))
	// remap[code]-1 is a source code's code in out, interned the first
	// time a row carries it: the dictionary is built in first-appearance
	// order, as appending each row's string would, at one map lookup per
	// distinct value instead of per row.
	remap := make([]int32, len(c.dict))
	hasNulls := c.nulls.anySet()
	for _, i := range sel {
		if hasNulls && c.nulls.get(int(i)) {
			out.AppendNull()
			continue
		}
		code := c.codes[i]
		if remap[code] == 0 {
			out.AppendString(c.dict[code])
			remap[code] = out.codes[len(out.codes)-1] + 1
			continue
		}
		out.codes = append(out.codes, remap[code]-1)
	}
	return out
}

// ---------------------------------------------------------------------
// TimeColumn

// TimeColumn stores timestamps as Unix nanoseconds.
type TimeColumn struct {
	name  string
	vals  []int64
	nulls nullBitmap
}

// Name implements Column.
func (c *TimeColumn) Name() string { return c.name }

// Type implements Column.
func (c *TimeColumn) Type() Type { return TypeTime }

// Len implements Column.
func (c *TimeColumn) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *TimeColumn) IsNull(i int) bool { return c.nulls.get(i) }

// Value implements Column.
func (c *TimeColumn) Value(i int) Value {
	if c.nulls.get(i) {
		return NullValue(TypeTime)
	}
	return Value{Kind: TypeTime, I: c.vals[i]}
}

// Append implements Column.
func (c *TimeColumn) Append(v Value) error {
	if v.Null {
		c.AppendNull()
		return nil
	}
	if v.Kind != TypeTime {
		return fmt.Errorf("engine: column %q is TIMESTAMP, got %v", c.name, v.Kind)
	}
	c.vals = append(c.vals, v.I)
	return nil
}

// AppendNull implements Column.
func (c *TimeColumn) AppendNull() {
	c.nulls.set(len(c.vals))
	c.vals = append(c.vals, 0)
}

// AppendTime adds a non-null timestamp without boxing.
func (c *TimeColumn) AppendTime(t time.Time) { c.vals = append(c.vals, t.UnixNano()) }

// Nanos exposes the raw Unix-nanosecond slice; NULL positions hold 0.
func (c *TimeColumn) Nanos() []int64 { return c.vals }

func (c *TimeColumn) clone(name string) Column {
	vals := make([]int64, len(c.vals))
	copy(vals, c.vals)
	return &TimeColumn{name: name, vals: vals, nulls: c.nulls.clone()}
}

func (c *TimeColumn) appendColumn(src Column) {
	o := src.(*TimeColumn)
	c.nulls.appendFrom(len(c.vals), &o.nulls)
	c.vals = append(c.vals, o.vals...)
}

func (c *TimeColumn) gather(name string, sel []int32) Column {
	out := &TimeColumn{name: name, vals: make([]int64, 0, len(sel))}
	hasNulls := c.nulls.anySet()
	for _, i := range sel {
		if hasNulls && c.nulls.get(int(i)) {
			out.AppendNull()
			continue
		}
		out.vals = append(out.vals, c.vals[i])
	}
	return out
}
