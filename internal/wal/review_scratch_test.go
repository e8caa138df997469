package wal

import (
	"testing"

	"seedb/internal/engine"
)

// Reproduce: replica rebuild (a whole-table PlacementStore.Sync = Drop+Register+CheckpointTable)
// followed by a cadence checkpoint triggered by appends to another table.
func TestReviewStaleDirtyPointerAfterReplace(t *testing.T) {
	dir := t.TempDir()
	cat := engine.NewCatalog()
	schema := engine.Schema{{Name: "g", Type: engine.TypeString}, {Name: "v", Type: engine.TypeFloat}}
	a, _ := engine.NewTable("a", schema)
	b, _ := engine.NewTable("b", schema)
	if err := cat.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(b); err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(Options{Dir: dir, SnapshotEvery: 100}, cat)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetAppendSink(s)

	row := func(g string, v float64) []engine.Value {
		return []engine.Value{engine.String(g), engine.Float(v)}
	}
	// 1. Ingest into "a" → dirty[a] = old a.
	if _, err := cat.Append(a, [][]engine.Value{row("old", 1)}); err != nil {
		t.Fatal(err)
	}
	// 2. Replica rebuild of "a": new table object, new contents.
	a2, _ := engine.NewTable("a", schema)
	if _, err := a2.Append([][]engine.Value{row("new", 42), row("new", 43)}); err != nil {
		t.Fatal(err)
	}
	cat.Drop("a")
	if err := cat.Register(a2); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointTable(a2); err != nil {
		t.Fatal(err)
	}
	// 3. A cadence checkpoint fires (here forced) due to other traffic.
	if _, err := cat.Append(b, [][]engine.Value{row("x", 9)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// 4. Crash + recover: what does "a" hold?
	cat2 := engine.NewCatalog()
	s2, info, err := Open(Options{Dir: dir}, cat2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ra, err := cat2.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("recovery: %+v", info)
	t.Logf("recovered a rows=%d (want 2 from rebuilt replica)", ra.NumRows())
	if ra.NumRows() != 2 {
		t.Fatalf("recovered stale replica: a has %d rows, want 2", ra.NumRows())
	}
}
