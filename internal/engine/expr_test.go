package engine

import (
	"strings"
	"testing"
	"time"
)

// exprTable builds a small table exercising every column type and NULLs.
func exprTable(t *testing.T) *Table {
	t.Helper()
	tb := MustNewTable("t", Schema{
		{Name: "s", Type: TypeString},
		{Name: "i", Type: TypeInt},
		{Name: "f", Type: TypeFloat},
		{Name: "ts", Type: TypeTime},
	})
	base := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	rows := []struct {
		s  Value
		i  Value
		f  Value
		ts Value
	}{
		{String("apple"), Int(1), Float(1.5), Time(base)},
		{String("banana"), Int(2), Float(2.5), Time(base.AddDate(0, 1, 0))},
		{String("apple"), Int(3), Float(3.5), Time(base.AddDate(0, 2, 0))},
		{NullValue(TypeString), NullValue(TypeInt), NullValue(TypeFloat), NullValue(TypeTime)},
		{String("cherry"), Int(-1), Float(-0.5), Time(base.AddDate(1, 0, 0))},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r.s, r.i, r.f, r.ts); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// matches runs a predicate over all rows and returns the matching
// indices.
func matches(t *testing.T, tb *Table, p Predicate) []int {
	t.Helper()
	b, err := p.Bind(tb)
	if err != nil {
		t.Fatalf("Bind(%s): %v", p, err)
	}
	var out []int
	for i := 0; i < tb.NumRows(); i++ {
		if b(i) {
			out = append(out, i)
		}
	}
	return out
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompareStringEquality(t *testing.T) {
	tb := exprTable(t)
	if got := matches(t, tb, Eq("s", String("apple"))); !eqInts(got, []int{0, 2}) {
		t.Errorf("s='apple' matched %v", got)
	}
	// NULL row must not match <> either (SQL semantics).
	if got := matches(t, tb, Compare("s", OpNe, String("apple"))); !eqInts(got, []int{1, 4}) {
		t.Errorf("s<>'apple' matched %v", got)
	}
	// Value absent from dictionary.
	if got := matches(t, tb, Eq("s", String("zzz"))); got != nil {
		t.Errorf("s='zzz' matched %v", got)
	}
	if got := matches(t, tb, Compare("s", OpNe, String("zzz"))); !eqInts(got, []int{0, 1, 2, 4}) {
		t.Errorf("s<>'zzz' matched %v", got)
	}
}

func TestCompareStringOrdering(t *testing.T) {
	tb := exprTable(t)
	if got := matches(t, tb, Compare("s", OpLt, String("banana"))); !eqInts(got, []int{0, 2}) {
		t.Errorf("s<'banana' matched %v", got)
	}
	if got := matches(t, tb, Compare("s", OpGe, String("banana"))); !eqInts(got, []int{1, 4}) {
		t.Errorf("s>='banana' matched %v", got)
	}
}

func TestCompareIntAndFloat(t *testing.T) {
	tb := exprTable(t)
	if got := matches(t, tb, Compare("i", OpGt, Int(1))); !eqInts(got, []int{1, 2}) {
		t.Errorf("i>1 matched %v", got)
	}
	// Float constant against INT column.
	if got := matches(t, tb, Compare("i", OpGe, Float(1.5))); !eqInts(got, []int{1, 2}) {
		t.Errorf("i>=1.5 matched %v", got)
	}
	if got := matches(t, tb, Compare("f", OpLe, Float(1.5))); !eqInts(got, []int{0, 4}) {
		t.Errorf("f<=1.5 matched %v", got)
	}
	// Int constant against FLOAT column.
	if got := matches(t, tb, Compare("f", OpGt, Int(2))); !eqInts(got, []int{1, 2}) {
		t.Errorf("f>2 matched %v", got)
	}
}

func TestCompareTime(t *testing.T) {
	tb := exprTable(t)
	cut := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
	if got := matches(t, tb, Compare("ts", OpGe, Time(cut))); !eqInts(got, []int{1, 2, 4}) {
		t.Errorf("ts>=feb matched %v", got)
	}
}

func TestCompareNullConstant(t *testing.T) {
	tb := exprTable(t)
	if got := matches(t, tb, Eq("i", NullValue(TypeInt))); got != nil {
		t.Errorf("= NULL matched %v; comparisons with NULL are never true", got)
	}
}

func TestCompareTypeMismatches(t *testing.T) {
	tb := exprTable(t)
	bad := []Predicate{
		Eq("s", Int(1)),
		Eq("i", String("x")),
		Eq("f", String("x")),
		Eq("ts", Int(1)),
		Eq("missing", Int(1)),
	}
	for _, p := range bad {
		if _, err := p.Bind(tb); err == nil {
			t.Errorf("Bind(%s) should error", p)
		}
	}
}

func TestInPred(t *testing.T) {
	tb := exprTable(t)
	if got := matches(t, tb, In("s", String("apple"), String("cherry"))); !eqInts(got, []int{0, 2, 4}) {
		t.Errorf("IN matched %v", got)
	}
	neg := &InPred{Column: "s", Values: []Value{String("apple")}, Negate: true}
	if got := matches(t, tb, neg); !eqInts(got, []int{1, 4}) {
		t.Errorf("NOT IN matched %v (NULL row must not match)", got)
	}
	if got := matches(t, tb, In("i", Int(2), Int(-1))); !eqInts(got, []int{1, 4}) {
		t.Errorf("IN over ints matched %v", got)
	}
	if _, err := In("nope", Int(1)).Bind(tb); err == nil {
		t.Error("IN on missing column must error")
	}
}

func TestNullPred(t *testing.T) {
	tb := exprTable(t)
	if got := matches(t, tb, IsNull("s")); !eqInts(got, []int{3}) {
		t.Errorf("IS NULL matched %v", got)
	}
	if got := matches(t, tb, IsNotNull("s")); !eqInts(got, []int{0, 1, 2, 4}) {
		t.Errorf("IS NOT NULL matched %v", got)
	}
	if _, err := IsNull("gone").Bind(tb); err == nil {
		t.Error("IS NULL on missing column must error")
	}
}

func TestBooleanCombinators(t *testing.T) {
	tb := exprTable(t)
	p := And(Eq("s", String("apple")), Compare("i", OpGt, Int(1)))
	if got := matches(t, tb, p); !eqInts(got, []int{2}) {
		t.Errorf("AND matched %v", got)
	}
	p = Or(Eq("s", String("banana")), Eq("s", String("cherry")))
	if got := matches(t, tb, p); !eqInts(got, []int{1, 4}) {
		t.Errorf("OR matched %v", got)
	}
	p = Not(Eq("s", String("apple")))
	if got := matches(t, tb, p); !eqInts(got, []int{1, 3, 4}) {
		t.Errorf("NOT matched %v (NOT of NULL-compare is true here by folded semantics)", got)
	}
	// Three-way AND exercises the generic loop.
	p = And(IsNotNull("s"), Compare("i", OpGe, Int(1)), Compare("f", OpLe, Float(3)))
	if got := matches(t, tb, p); !eqInts(got, []int{0, 1}) {
		t.Errorf("AND3 matched %v", got)
	}
	// And/Or of a single child collapse to the child.
	if And(Eq("i", Int(1))).String() != "i = 1" {
		t.Error("And(single) should collapse")
	}
	if Or(Eq("i", Int(1))).String() != "i = 1" {
		t.Error("Or(single) should collapse")
	}
	// Empty And is TRUE, empty Or is FALSE.
	if got := matches(t, tb, And()); len(got) != tb.NumRows() {
		t.Errorf("empty AND matched %v", got)
	}
	if got := matches(t, tb, Or()); got != nil {
		t.Errorf("empty OR matched %v", got)
	}
}

func TestCombinatorBindErrors(t *testing.T) {
	tb := exprTable(t)
	bad := Eq("missing", Int(1))
	if _, err := And(IsNull("s"), bad).Bind(tb); err == nil {
		t.Error("AND must propagate bind errors")
	}
	if _, err := Or(IsNull("s"), bad).Bind(tb); err == nil {
		t.Error("OR must propagate bind errors")
	}
	if _, err := Not(bad).Bind(tb); err == nil {
		t.Error("NOT must propagate bind errors")
	}
}

func TestPredicateStringsAndColumns(t *testing.T) {
	p := And(Eq("product", String("Laser'wave")), Compare("amount", OpGt, Float(10)))
	s := p.String()
	if !strings.Contains(s, "product = 'Laser''wave'") {
		t.Errorf("quote escaping wrong: %s", s)
	}
	if !strings.Contains(s, "amount > 10") {
		t.Errorf("numeric rendering wrong: %s", s)
	}
	cols := p.Columns()
	if len(cols) != 2 || cols[0] != "amount" || cols[1] != "product" {
		t.Errorf("Columns = %v, want sorted [amount product]", cols)
	}
	in := In("s", String("a"), Int(3))
	if got := in.String(); !strings.Contains(got, "'a'") || !strings.Contains(got, "3") {
		t.Errorf("In.String = %q", got)
	}
	notIn := &InPred{Column: "s", Values: []Value{String("a")}, Negate: true}
	if got := notIn.String(); !strings.Contains(got, "NOT IN") {
		t.Errorf("NotIn.String = %q", got)
	}
	if got := IsNull("x").String(); got != "x IS NULL" {
		t.Errorf("IsNull.String = %q", got)
	}
	if got := IsNotNull("x").String(); got != "x IS NOT NULL" {
		t.Errorf("IsNotNull.String = %q", got)
	}
	if got := Not(IsNull("x")).String(); got != "NOT (x IS NULL)" {
		t.Errorf("Not.String = %q", got)
	}
	if got := Not(IsNull("x")).Columns(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Not.Columns = %v", got)
	}
}

func TestCmpOpString(t *testing.T) {
	ops := map[CmpOp]string{OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	if CmpOp(42).String() == "" {
		t.Error("unknown op should render")
	}
	if CmpOp(42).holds(0) {
		t.Error("unknown op should hold nothing")
	}
}
