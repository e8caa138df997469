package engine

import (
	"fmt"
	"sort"
	"strings"
)

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators supported in predicates.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// holds reports whether the comparison outcome c (a three-way compare
// result) satisfies the operator.
func (op CmpOp) holds(c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// Predicate is a boolean row filter over a table. Predicates are built
// once (by the SQL parser or by SeeDB's query generator) and bound to a
// concrete table before execution; binding resolves column references
// and specializes hot paths (e.g. string equality becomes a dictionary
// code comparison).
//
// NULL semantics follow SQL's WHERE clause: a comparison involving NULL
// is not true, so the row is filtered out.
type Predicate interface {
	// Bind resolves column references against t and returns a per-row
	// evaluator.
	Bind(t *Table) (BoundPredicate, error)
	// Columns returns the distinct column names the predicate reads.
	Columns() []string
	// String renders the predicate as SQL text.
	String() string
}

// BoundPredicate evaluates the predicate for a single row index.
type BoundPredicate func(row int) bool

// ---------------------------------------------------------------------
// Compare

// ComparePred compares a column against a constant value.
type ComparePred struct {
	Column string
	Op     CmpOp
	Value  Value
}

// Compare builds a column-vs-constant comparison predicate.
func Compare(column string, op CmpOp, v Value) *ComparePred {
	return &ComparePred{Column: column, Op: op, Value: v}
}

// Eq is shorthand for an equality comparison.
func Eq(column string, v Value) *ComparePred { return Compare(column, OpEq, v) }

// Bind implements Predicate.
func (p *ComparePred) Bind(t *Table) (BoundPredicate, error) {
	col, err := t.Column(p.Column)
	if err != nil {
		return nil, err
	}
	if p.Value.Null {
		// SQL: comparisons with NULL are never true.
		return func(int) bool { return false }, nil
	}
	op := p.Op
	switch c := col.(type) {
	case *StringColumn:
		if p.Value.Kind != TypeString {
			return nil, fmt.Errorf("engine: cannot compare STRING column %q with %v", p.Column, p.Value.Kind)
		}
		if op == OpEq || op == OpNe {
			// Fast path: compare dictionary codes.
			code := c.CodeOf(p.Value.S)
			codes := c.Codes()
			if op == OpEq {
				if code < 0 {
					return func(int) bool { return false }, nil
				}
				return func(row int) bool { return codes[row] == code }, nil
			}
			return func(row int) bool { return codes[row] != code && codes[row] >= 0 }, nil
		}
		s := p.Value.S
		codes, dict := c.Codes(), c.Dict()
		return func(row int) bool {
			if codes[row] < 0 {
				return false
			}
			return op.holds(strings.Compare(dict[codes[row]], s))
		}, nil
	case *IntColumn:
		var rhs int64
		var rhsIsFloat bool
		var rhsF float64
		switch p.Value.Kind {
		case TypeInt:
			rhs = p.Value.I
		case TypeFloat:
			rhsIsFloat = true
			rhsF = p.Value.F
		default:
			return nil, fmt.Errorf("engine: cannot compare INT column %q with %v", p.Column, p.Value.Kind)
		}
		vals := c.Ints()
		hasNulls := c.nulls.anySet()
		if rhsIsFloat {
			return func(row int) bool {
				if hasNulls && c.nulls.get(row) {
					return false
				}
				return op.holds(cmpFloat(float64(vals[row]), rhsF))
			}, nil
		}
		return func(row int) bool {
			if hasNulls && c.nulls.get(row) {
				return false
			}
			return op.holds(cmpInt(vals[row], rhs))
		}, nil
	case *FloatColumn:
		rhs, ok := p.Value.AsFloat()
		if !ok {
			return nil, fmt.Errorf("engine: cannot compare FLOAT column %q with %v", p.Column, p.Value.Kind)
		}
		vals := c.Floats()
		hasNulls := c.nulls.anySet()
		return func(row int) bool {
			if hasNulls && c.nulls.get(row) {
				return false
			}
			return op.holds(cmpFloat(vals[row], rhs))
		}, nil
	case *TimeColumn:
		if p.Value.Kind != TypeTime {
			return nil, fmt.Errorf("engine: cannot compare TIMESTAMP column %q with %v", p.Column, p.Value.Kind)
		}
		rhs := p.Value.I
		vals := c.Nanos()
		hasNulls := c.nulls.anySet()
		return func(row int) bool {
			if hasNulls && c.nulls.get(row) {
				return false
			}
			return op.holds(cmpInt(vals[row], rhs))
		}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported column kind for %q", p.Column)
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Columns implements Predicate.
func (p *ComparePred) Columns() []string { return []string{p.Column} }

// String implements Predicate.
func (p *ComparePred) String() string {
	rhs := p.Value.Format()
	if p.Value.Kind == TypeString && !p.Value.Null {
		rhs = "'" + strings.ReplaceAll(p.Value.S, "'", "''") + "'"
	}
	return fmt.Sprintf("%s %s %s", p.Column, p.Op, rhs)
}

// ---------------------------------------------------------------------
// In

// InPred tests membership of a column's value in a constant list.
type InPred struct {
	Column string
	Values []Value
	Negate bool
}

// In builds a membership predicate.
func In(column string, values ...Value) *InPred {
	return &InPred{Column: column, Values: values}
}

// Bind implements Predicate.
func (p *InPred) Bind(t *Table) (BoundPredicate, error) {
	col, err := t.Column(p.Column)
	if err != nil {
		return nil, err
	}
	neg := p.Negate
	if sc, ok := col.(*StringColumn); ok {
		set := make(map[int32]struct{}, len(p.Values))
		for _, v := range p.Values {
			if v.Kind != TypeString || v.Null {
				continue
			}
			if code := sc.CodeOf(v.S); code >= 0 {
				set[code] = struct{}{}
			}
		}
		codes := sc.Codes()
		return func(row int) bool {
			if codes[row] < 0 {
				return false
			}
			_, hit := set[codes[row]]
			return hit != neg
		}, nil
	}
	vals := p.Values
	return func(row int) bool {
		if col.IsNull(row) {
			return false
		}
		rv := col.Value(row)
		for _, v := range vals {
			if rv.Equal(v) {
				return !neg
			}
		}
		return neg
	}, nil
}

// Columns implements Predicate.
func (p *InPred) Columns() []string { return []string{p.Column} }

// String implements Predicate.
func (p *InPred) String() string {
	parts := make([]string, len(p.Values))
	for i, v := range p.Values {
		if v.Kind == TypeString && !v.Null {
			parts[i] = "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
		} else {
			parts[i] = v.Format()
		}
	}
	kw := "IN"
	if p.Negate {
		kw = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", p.Column, kw, strings.Join(parts, ", "))
}

// ---------------------------------------------------------------------
// IsNull

// NullPred tests a column for NULL (or NOT NULL when negated).
type NullPred struct {
	Column string
	Negate bool
}

// IsNull builds an IS NULL test.
func IsNull(column string) *NullPred { return &NullPred{Column: column} }

// IsNotNull builds an IS NOT NULL test.
func IsNotNull(column string) *NullPred { return &NullPred{Column: column, Negate: true} }

// Bind implements Predicate.
func (p *NullPred) Bind(t *Table) (BoundPredicate, error) {
	col, err := t.Column(p.Column)
	if err != nil {
		return nil, err
	}
	neg := p.Negate
	return func(row int) bool { return col.IsNull(row) != neg }, nil
}

// Columns implements Predicate.
func (p *NullPred) Columns() []string { return []string{p.Column} }

// String implements Predicate.
func (p *NullPred) String() string {
	if p.Negate {
		return p.Column + " IS NOT NULL"
	}
	return p.Column + " IS NULL"
}

// ---------------------------------------------------------------------
// Boolean combinators

// AndPred is the conjunction of child predicates.
type AndPred struct{ Children []Predicate }

// And builds a conjunction; with no children it is TRUE.
func And(children ...Predicate) Predicate {
	if len(children) == 1 {
		return children[0]
	}
	return &AndPred{Children: children}
}

// Bind implements Predicate.
func (p *AndPred) Bind(t *Table) (BoundPredicate, error) {
	bound := make([]BoundPredicate, len(p.Children))
	for i, c := range p.Children {
		b, err := c.Bind(t)
		if err != nil {
			return nil, err
		}
		bound[i] = b
	}
	switch len(bound) {
	case 0:
		return func(int) bool { return true }, nil
	case 2:
		a, b := bound[0], bound[1]
		return func(row int) bool { return a(row) && b(row) }, nil
	}
	return func(row int) bool {
		for _, b := range bound {
			if !b(row) {
				return false
			}
		}
		return true
	}, nil
}

// Columns implements Predicate.
func (p *AndPred) Columns() []string { return unionColumns(p.Children) }

// String implements Predicate.
func (p *AndPred) String() string { return joinPreds(p.Children, " AND ") }

// OrPred is the disjunction of child predicates.
type OrPred struct{ Children []Predicate }

// Or builds a disjunction; with no children it is FALSE.
func Or(children ...Predicate) Predicate {
	if len(children) == 1 {
		return children[0]
	}
	return &OrPred{Children: children}
}

// Bind implements Predicate.
func (p *OrPred) Bind(t *Table) (BoundPredicate, error) {
	bound := make([]BoundPredicate, len(p.Children))
	for i, c := range p.Children {
		b, err := c.Bind(t)
		if err != nil {
			return nil, err
		}
		bound[i] = b
	}
	return func(row int) bool {
		for _, b := range bound {
			if b(row) {
				return true
			}
		}
		return false
	}, nil
}

// Columns implements Predicate.
func (p *OrPred) Columns() []string { return unionColumns(p.Children) }

// String implements Predicate.
func (p *OrPred) String() string { return joinPreds(p.Children, " OR ") }

// NotPred negates a child predicate.
type NotPred struct{ Child Predicate }

// Not negates a predicate.
func Not(child Predicate) *NotPred { return &NotPred{Child: child} }

// Bind implements Predicate.
func (p *NotPred) Bind(t *Table) (BoundPredicate, error) {
	b, err := p.Child.Bind(t)
	if err != nil {
		return nil, err
	}
	return func(row int) bool { return !b(row) }, nil
}

// Columns implements Predicate.
func (p *NotPred) Columns() []string { return p.Child.Columns() }

// String implements Predicate.
func (p *NotPred) String() string { return "NOT (" + p.Child.String() + ")" }

func unionColumns(children []Predicate) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, c := range children {
		for _, col := range c.Columns() {
			if _, ok := seen[col]; !ok {
				seen[col] = struct{}{}
				out = append(out, col)
			}
		}
	}
	sort.Strings(out)
	return out
}

func joinPreds(children []Predicate, sep string) string {
	parts := make([]string, len(children))
	for i, c := range children {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, sep)
}
