package engine

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeInt:    "INT",
		TypeFloat:  "FLOAT",
		TypeString: "STRING",
		TypeTime:   "TIMESTAMP",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", int(typ), got, want)
		}
	}
	if Type(99).String() == "" {
		t.Error("unknown type should still render")
	}
}

func TestTypeNumeric(t *testing.T) {
	if !TypeInt.Numeric() || !TypeFloat.Numeric() {
		t.Error("INT and FLOAT must be numeric")
	}
	if TypeString.Numeric() || TypeTime.Numeric() {
		t.Error("STRING and TIMESTAMP must not be numeric")
	}
}

func TestValueConstructorsAndFormat(t *testing.T) {
	if got := Int(42).Format(); got != "42" {
		t.Errorf("Int format = %q", got)
	}
	if got := Float(2.5).Format(); got != "2.5" {
		t.Errorf("Float format = %q", got)
	}
	if got := Float(3).Format(); got != "3.0" {
		t.Errorf("whole Float format = %q", got)
	}
	if got := String("hi").Format(); got != "hi" {
		t.Errorf("String format = %q", got)
	}
	if got := NullValue(TypeString).Format(); got != "NULL" {
		t.Errorf("Null format = %q", got)
	}
	ts := time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC)
	if got := Time(ts).Format(); got != "2014-09-01T00:00:00Z" {
		t.Errorf("Time format = %q", got)
	}
}

// TestFloatFormatMatchesFormatFloat pins Format's integer shortcut for
// integral floats to the rendering it replaced: FormatFloat's 'f' with
// one decimal below 1e15, 'g' from there on.
func TestFloatFormatMatchesFormatFloat(t *testing.T) {
	ref := func(f float64) string {
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return strconv.FormatFloat(f, 'f', 1, 64)
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 10, -7, 1e15 - 1, -(1e15 - 1), 1e15, -1e15,
		math.Nextafter(1e15, 0), 1 << 53, 4503599627370495.5, 0.5, -0.5, 2.25, 1e300,
		math.MaxInt64, math.MinInt64, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		cases = append(cases, float64(r.Int63n(2e15)-1e15), math.Trunc((r.Float64()-0.5)*math.Pow(10, float64(r.Intn(17)))))
	}
	for _, f := range cases {
		if got, want := Float(f).Format(), ref(f); got != want {
			t.Fatalf("Float(%v).Format() = %q, want %q", f, got, want)
		}
	}
}

func TestValueAsFloat(t *testing.T) {
	if v, ok := Int(7).AsFloat(); !ok || v != 7 {
		t.Errorf("Int(7).AsFloat() = %v,%v", v, ok)
	}
	if v, ok := Float(1.5).AsFloat(); !ok || v != 1.5 {
		t.Errorf("Float(1.5).AsFloat() = %v,%v", v, ok)
	}
	if _, ok := String("x").AsFloat(); ok {
		t.Error("String.AsFloat() should fail")
	}
	if _, ok := NullValue(TypeInt).AsFloat(); ok {
		t.Error("Null.AsFloat() should fail")
	}
}

func TestValueAsTime(t *testing.T) {
	ts := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	v := Time(ts)
	got, ok := v.AsTime()
	if !ok || !got.Equal(ts) {
		t.Errorf("AsTime() = %v, %v", got, ok)
	}
	if _, ok := Int(1).AsTime(); ok {
		t.Error("Int.AsTime() should fail")
	}
}

func TestValueEqualAndCompare(t *testing.T) {
	if !Int(1).Equal(Int(1)) || Int(1).Equal(Int(2)) {
		t.Error("Int equality broken")
	}
	if Int(1).Equal(Float(1)) {
		t.Error("cross-type equality must be false")
	}
	if !NullValue(TypeInt).Equal(NullValue(TypeInt)) {
		t.Error("same-type NULLs compare equal for grouping")
	}
	if got := String("a").Compare(String("b")); got != -1 {
		t.Errorf("a<b compare = %d", got)
	}
	if got := NullValue(TypeInt).Compare(Int(0)); got != -1 {
		t.Error("NULL must sort before values")
	}
	if got := Int(0).Compare(NullValue(TypeInt)); got != 1 {
		t.Error("values must sort after NULL")
	}
	if got := Float(2).Compare(Float(2)); got != 0 {
		t.Errorf("equal floats compare = %d", got)
	}
}

func TestIntColumnBasics(t *testing.T) {
	c := NewColumn("x", TypeInt).(*IntColumn)
	if err := c.Append(Int(10)); err != nil {
		t.Fatal(err)
	}
	c.AppendNull()
	c.AppendInt(30)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Value(0).I != 10 || !c.Value(1).Null || c.Value(2).I != 30 {
		t.Errorf("values wrong: %v %v %v", c.Value(0), c.Value(1), c.Value(2))
	}
	if !c.IsNull(1) || c.IsNull(0) {
		t.Error("null tracking wrong")
	}
	if err := c.Append(String("no")); err == nil {
		t.Error("type mismatch must error")
	}
}

func TestFloatColumnWidensInt(t *testing.T) {
	c := NewColumn("f", TypeFloat).(*FloatColumn)
	if err := c.Append(Int(3)); err != nil {
		t.Fatal(err)
	}
	if got := c.Value(0); got.F != 3 {
		t.Errorf("widened value = %v", got)
	}
	if err := c.Append(String("x")); err == nil {
		t.Error("string into float must error")
	}
}

func TestStringColumnDictionary(t *testing.T) {
	c := NewStringColumn("s")
	for _, s := range []string{"a", "b", "a", "c", "b", "a"} {
		c.AppendString(s)
	}
	if c.Cardinality() != 3 {
		t.Fatalf("Cardinality = %d, want 3", c.Cardinality())
	}
	if c.CodeOf("a") != 0 || c.CodeOf("b") != 1 || c.CodeOf("c") != 2 {
		t.Error("dictionary codes not in first-seen order")
	}
	if c.CodeOf("zzz") != -1 {
		t.Error("missing string must code to -1")
	}
	c.AppendNull()
	if !c.IsNull(6) || c.Codes()[6] != -1 {
		t.Error("null row should have code -1")
	}
	if got := c.Value(3); got.S != "c" {
		t.Errorf("Value(3) = %v", got)
	}
}

func TestStringColumnDictRoundTripProperty(t *testing.T) {
	f := func(words []string) bool {
		c := NewStringColumn("p")
		for _, w := range words {
			c.AppendString(w)
		}
		for i, w := range words {
			if c.Value(i).S != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeColumn(t *testing.T) {
	c := NewColumn("t", TypeTime).(*TimeColumn)
	now := time.Now()
	c.AppendTime(now)
	c.AppendNull()
	if got, _ := c.Value(0).AsTime(); !got.Equal(now) {
		t.Errorf("Value(0) = %v, want %v", got, now)
	}
	if !c.IsNull(1) {
		t.Error("row 1 should be NULL")
	}
	if err := c.Append(Int(0)); err == nil {
		t.Error("INT into TIMESTAMP must error")
	}
}

func TestColumnCloneIndependence(t *testing.T) {
	orig := NewStringColumn("s")
	orig.AppendString("x")
	orig.AppendNull()
	cl := orig.clone("s2").(*StringColumn)
	cl.AppendString("y")
	if orig.Len() != 2 || cl.Len() != 3 {
		t.Errorf("clone not independent: orig %d, clone %d", orig.Len(), cl.Len())
	}
	if cl.Name() != "s2" {
		t.Errorf("clone name = %q", cl.Name())
	}
	if !cl.IsNull(1) {
		t.Error("clone lost null bitmap")
	}
}

func TestColumnGather(t *testing.T) {
	c := NewColumn("x", TypeInt).(*IntColumn)
	for i := 0; i < 10; i++ {
		if i == 5 {
			c.AppendNull()
		} else {
			c.AppendInt(int64(i))
		}
	}
	g := c.gather("g", []int32{9, 5, 0})
	if g.Len() != 3 {
		t.Fatalf("gather len = %d", g.Len())
	}
	if g.Value(0).I != 9 || !g.Value(1).Null || g.Value(2).I != 0 {
		t.Errorf("gather values wrong: %v %v %v", g.Value(0), g.Value(1), g.Value(2))
	}
}

func TestGatherPreservesOrderAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 100
	ic := NewColumn("i", TypeInt)
	fc := NewColumn("f", TypeFloat)
	sc := NewColumn("s", TypeString)
	tc := NewColumn("t", TypeTime)
	base := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			ic.AppendNull()
			fc.AppendNull()
			sc.AppendNull()
			tc.AppendNull()
			continue
		}
		_ = ic.Append(Int(int64(i)))
		_ = fc.Append(Float(float64(i) / 2))
		_ = sc.Append(String(string(rune('a' + i%26))))
		_ = tc.Append(Time(base.AddDate(0, 0, i)))
	}
	sel := []int32{int32(n - 1), 0, int32(n / 2)}
	for _, col := range []Column{ic, fc, sc, tc} {
		g := col.gather("g", sel)
		for j, idx := range sel {
			if !g.Value(j).Equal(col.Value(int(idx))) {
				t.Errorf("col %s: gather[%d] = %v, want %v", col.Name(), j, g.Value(j), col.Value(int(idx)))
			}
		}
	}
}

func TestNullBitmap(t *testing.T) {
	var b nullBitmap
	if b.anySet() {
		t.Error("empty bitmap should have no bits")
	}
	b.set(0)
	b.set(64)
	b.set(64) // idempotent
	if !b.get(0) || !b.get(64) || b.get(1) || b.get(1000) {
		t.Error("bit reads wrong")
	}
	if b.count != 2 {
		t.Errorf("count = %d, want 2", b.count)
	}
	cl := b.clone()
	cl.set(1)
	if b.get(1) {
		t.Error("clone not independent")
	}
}
