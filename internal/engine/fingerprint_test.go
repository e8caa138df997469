package engine

import (
	"bytes"
	"strings"
	"testing"
)

func TestFingerprintChangesOnMutation(t *testing.T) {
	tb := MustNewTable("t", Schema{{Name: "g", Type: TypeString}, {Name: "v", Type: TypeFloat}})
	fp0 := tb.Fingerprint()
	if fp0 == "" || !strings.HasPrefix(fp0, "t#") {
		t.Fatalf("fingerprint = %q", fp0)
	}

	if err := tb.AppendRow(String("a"), Float(1)); err != nil {
		t.Fatal(err)
	}
	fp1 := tb.Fingerprint()
	if fp1 == fp0 {
		t.Fatal("AppendRow must change the fingerprint")
	}

	l := tb.StartLoad()
	g, _ := l.ColumnByName("g")
	v, _ := l.ColumnByName("v")
	g.(*StringColumn).AppendString("b")
	v.(*FloatColumn).AppendFloat(2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if tb.Fingerprint() == fp1 {
		t.Fatal("bulk load must change the fingerprint")
	}
}

func TestFingerprintUniqueAcrossInstances(t *testing.T) {
	schema := Schema{{Name: "g", Type: TypeString}}
	a := MustNewTable("same", schema)
	b := MustNewTable("same", schema)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("two tables sharing a name must have distinct fingerprints")
	}
	if a.Clone("same").Fingerprint() == a.Fingerprint() {
		t.Fatal("a clone must have its own fingerprint")
	}
	if a.Gather("same", nil).Fingerprint() == a.Fingerprint() {
		t.Fatal("a gather must have its own fingerprint")
	}
}

func TestFingerprintUniqueAfterSnapshotRoundTrip(t *testing.T) {
	tb := MustNewTable("snap", Schema{{Name: "v", Type: TypeInt}})
	if err := tb.AppendRow(Int(7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTableSnapshot(&buf, tb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() == tb.Fingerprint() {
		t.Fatal("a deserialized table must have its own fingerprint")
	}
}
