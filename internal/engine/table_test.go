package engine

import (
	"strings"
	"testing"
)

func testSchema() Schema {
	return Schema{
		{Name: "product", Type: TypeString},
		{Name: "store", Type: TypeString},
		{Name: "amount", Type: TypeFloat},
		{Name: "qty", Type: TypeInt},
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("", testSchema()); err == nil {
		t.Error("empty table name must error")
	}
	if _, err := NewTable("t", nil); err == nil {
		t.Error("empty schema must error")
	}
	if _, err := NewTable("t", Schema{{Name: "", Type: TypeInt}}); err == nil {
		t.Error("empty column name must error")
	}
	dup := Schema{{Name: "a", Type: TypeInt}, {Name: "a", Type: TypeFloat}}
	if _, err := NewTable("t", dup); err == nil {
		t.Error("duplicate column must error")
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := testSchema()
	if s.ColumnIndex("amount") != 2 {
		t.Errorf("ColumnIndex(amount) = %d", s.ColumnIndex("amount"))
	}
	if s.ColumnIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
}

func TestAppendRowAndAccess(t *testing.T) {
	tb := MustNewTable("sales", testSchema())
	if err := tb.AppendRow(String("Laserwave"), String("Cambridge, MA"), Float(180.55), Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendRow(String("Laserwave"), NullValue(TypeString), Float(1), Int(1)); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	if tb.NumCols() != 4 {
		t.Fatalf("NumCols = %d", tb.NumCols())
	}
	row := tb.Row(0)
	if row[0].S != "Laserwave" || row[2].F != 180.55 {
		t.Errorf("Row(0) = %v", row)
	}
	col, err := tb.Column("store")
	if err != nil {
		t.Fatal(err)
	}
	if !col.IsNull(1) {
		t.Error("store[1] should be NULL")
	}
	if _, err := tb.Column("missing"); err == nil || !strings.Contains(err.Error(), "sales") {
		t.Errorf("missing column error should name the table, got %v", err)
	}
	if !tb.HasColumn("qty") || tb.HasColumn("zz") {
		t.Error("HasColumn wrong")
	}
}

func TestAppendRowErrors(t *testing.T) {
	tb := MustNewTable("t", testSchema())
	if err := tb.AppendRow(String("x")); err == nil {
		t.Error("wrong arity must error")
	}
	// Type mismatch mid-row must roll back already-appended columns.
	err := tb.AppendRow(String("p"), String("s"), String("oops"), Int(1))
	if err == nil {
		t.Fatal("type mismatch must error")
	}
	if tb.NumRows() != 0 {
		t.Fatalf("failed append must not leave rows, got %d", tb.NumRows())
	}
	// All columns must still be rectangular.
	if err := tb.AppendRow(String("p"), String("s"), Float(2), Int(1)); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	for i := 0; i < tb.NumCols(); i++ {
		if tb.ColumnAt(i).Len() != 1 {
			t.Errorf("column %d has %d rows, want 1", i, tb.ColumnAt(i).Len())
		}
	}
}

func TestLoaderBulk(t *testing.T) {
	tb := MustNewTable("bulk", Schema{{Name: "s", Type: TypeString}, {Name: "v", Type: TypeInt}})
	l := tb.StartLoad()
	sc := l.Column(0).(*StringColumn)
	ic := l.Column(1).(*IntColumn)
	for i := 0; i < 1000; i++ {
		sc.AppendString("g")
		ic.AppendInt(int64(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1000 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	if err := l.Close(); err == nil {
		t.Error("double Close must error")
	}
}

func TestLoaderRaggedDetection(t *testing.T) {
	tb := MustNewTable("ragged", Schema{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeInt}})
	l := tb.StartLoad()
	l.Column(0).(*IntColumn).AppendInt(1)
	// column b left empty -> ragged
	if err := l.Close(); err == nil {
		t.Error("ragged load must error")
	}
}

func TestLoaderColumnByName(t *testing.T) {
	tb := MustNewTable("t", Schema{{Name: "a", Type: TypeInt}})
	l := tb.StartLoad()
	if _, err := l.ColumnByName("a"); err != nil {
		t.Error(err)
	}
	if _, err := l.ColumnByName("zz"); err == nil {
		t.Error("missing column must error")
	}
	_ = l.Close()
}

func TestGatherTable(t *testing.T) {
	tb := MustNewTable("g", testSchema())
	for i := 0; i < 10; i++ {
		if err := tb.AppendRow(String("p"), String("s"), Float(float64(i)), Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sub := tb.Gather("sub", []int32{2, 4, 6})
	if sub.NumRows() != 3 || sub.Name() != "sub" {
		t.Fatalf("gathered table wrong: %d rows, name %q", sub.NumRows(), sub.Name())
	}
	if got := sub.Row(1)[3].I; got != 4 {
		t.Errorf("gathered row value = %d, want 4", got)
	}
}

func TestCloneTable(t *testing.T) {
	tb := MustNewTable("orig", testSchema())
	_ = tb.AppendRow(String("p"), String("s"), Float(1), Int(1))
	cl := tb.Clone("copy")
	_ = cl.AppendRow(String("p2"), String("s2"), Float(2), Int(2))
	if tb.NumRows() != 1 || cl.NumRows() != 2 {
		t.Error("clone must be independent")
	}
	if cl.Name() != "copy" {
		t.Errorf("clone name = %q", cl.Name())
	}
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	tb := MustNewTable("sales", testSchema())
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(tb); err == nil {
		t.Error("duplicate registration must error")
	}
	got, err := cat.Table("sales")
	if err != nil || got != tb {
		t.Fatalf("Table lookup = %v, %v", got, err)
	}
	if _, err := cat.Table("none"); err == nil {
		t.Error("missing table must error")
	}
	if names := cat.TableNames(); len(names) != 1 || names[0] != "sales" {
		t.Errorf("TableNames = %v", names)
	}
	cat.Drop("sales")
	if _, err := cat.Table("sales"); err == nil {
		t.Error("dropped table should be gone")
	}
	cat.Drop("sales") // no-op
}
