package engine

import (
	"bytes"
	"strings"
	"testing"
)

// versionedTable builds a table and applies n single-row append
// batches, so its mutation version is exactly n.
func versionedTable(t *testing.T, n int) *Table {
	t.Helper()
	tb := MustNewTable("ver", Schema{
		{Name: "g", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	for k := 0; k < n; k++ {
		if _, err := tb.Append([][]Value{{String("g"), Float(float64(k))}}); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Version() != uint64(n) {
		t.Fatalf("version = %d after %d batches", tb.Version(), n)
	}
	return tb
}

func TestSnapshotPersistsMutationVersion(t *testing.T) {
	tb := versionedTable(t, 3)

	var snap bytes.Buffer
	if err := WriteTableSnapshot(&snap, tb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != 3 {
		t.Errorf("restored version = %d, want 3 (WAL replay keys on it)", got.Version())
	}
	// Version persistence must not leak into the content identity:
	// ContentHash digests schema and rows only, so a restored table
	// hashes identically to the live one.
	gh, err := got.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	th, err := tb.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if gh != th {
		t.Errorf("ContentHash diverged across snapshot restore: %s != %s", gh, th)
	}

	// The legacy SDB1 layout stays version-free and restores at zero.
	var v1 bytes.Buffer
	if err := writeTableV1(&v1, tb); err != nil {
		t.Fatal(err)
	}
	legacy, err := ReadTable(&v1)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Version() != 0 {
		t.Errorf("SDB1 restore version = %d, want 0", legacy.Version())
	}
}

// Regression for the identity-aliasing bug: exec-cache and
// partial-store keys embed Fingerprint (name#id.version). A restored
// table resumes the version sequence but mints a fresh process-local
// id, so none of its fingerprints — now or after further appends —
// may collide with any the original table has ever produced.
func TestRestoredFingerprintNeverAliases(t *testing.T) {
	tb := versionedTable(t, 2)
	seen := map[string]bool{tb.Fingerprint(): true}

	var snap bytes.Buffer
	if err := WriteTableSnapshot(&snap, tb); err != nil {
		t.Fatal(err)
	}
	// The live table keeps moving after the snapshot was taken.
	for k := 0; k < 3; k++ {
		if _, err := tb.Append([][]Value{{String("x"), Float(1)}}); err != nil {
			t.Fatal(err)
		}
		seen[tb.Fingerprint()] = true
	}

	restored, err := ReadTable(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Version() != 2 {
		t.Fatalf("restored version = %d, want 2", restored.Version())
	}
	for k := 0; k < 5; k++ {
		if seen[restored.Fingerprint()] {
			t.Fatalf("restored fingerprint %s aliases a pre-restore cache key", restored.Fingerprint())
		}
		if _, err := restored.Append([][]Value{{String("x"), Float(1)}}); err != nil {
			t.Fatal(err)
		}
	}
}

// Regression for the write/read asymmetry: the SDB1 writer used to happily
// serialize a zero-column table that ReadTable then rejected, leaving
// an unreadable file. Both writers now refuse at write time.
func TestWriteZeroColumnTableRejected(t *testing.T) {
	zc := &Table{name: "zc", byName: map[string]int{}}
	var buf bytes.Buffer
	if err := writeTableV1(&buf, zc); err == nil || !strings.Contains(err.Error(), "zero-column") {
		t.Errorf("SDB1 write of zero columns = %v, want zero-column rejection", err)
	}
	if buf.Len() != 0 {
		t.Errorf("rejected write still emitted %d bytes", buf.Len())
	}
	if err := WriteTableSnapshot(&buf, zc); err == nil || !strings.Contains(err.Error(), "zero-column") {
		t.Errorf("WriteTableSnapshot(zero columns) = %v, want zero-column rejection", err)
	}
}
