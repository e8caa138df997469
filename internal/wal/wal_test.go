package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seedb/internal/engine"
)

func testSchema() engine.Schema {
	return engine.Schema{
		{Name: "g", Type: engine.TypeString},
		{Name: "v", Type: engine.TypeFloat},
		{Name: "n", Type: engine.TypeInt},
	}
}

func testBatch(k int) [][]engine.Value {
	return [][]engine.Value{
		{engine.String("a"), engine.Float(float64(k)), engine.Int(int64(k))},
		{engine.String("b"), engine.NullValue(engine.TypeFloat), engine.Int(int64(-k))},
	}
}

// newStoreWithBase builds a catalog holding a fresh base table and
// opens a store over dir, wiring it as the catalog's append sink —
// the same sequence DB.EnableDurability performs.
func newStoreWithBase(t *testing.T, dir string, opts Options) (*engine.Catalog, *engine.Table, *Store, *RecoveryInfo) {
	t.Helper()
	cat := engine.NewCatalog()
	tb := engine.MustNewTable("live", testSchema())
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	opts.Dir = dir
	s, info, err := Open(opts, cat)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetAppendSink(s)
	// The snapshot may have replaced the base table instance.
	live, err := cat.Table("live")
	if err != nil {
		t.Fatal(err)
	}
	return cat, live, s, info
}

func contentHash(t *testing.T, tb *engine.Table) string {
	t.Helper()
	h, err := tb.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRecordRoundTrip(t *testing.T) {
	rec := &Record{Table: "orders", PrevVersion: 41, Rows: testBatch(7)}
	payload, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != rec.Table || got.PrevVersion != rec.PrevVersion || len(got.Rows) != len(rec.Rows) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for ri := range rec.Rows {
		for ci := range rec.Rows[ri] {
			if !rec.Rows[ri][ci].Equal(got.Rows[ri][ci]) {
				t.Fatalf("row %d col %d: %v != %v", ri, ci, got.Rows[ri][ci], rec.Rows[ri][ci])
			}
		}
	}
}

func TestLogSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, recs, err := openLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	for k := 0; k < 5; k++ {
		if err := l.append(&Record{Table: "t", PrevVersion: uint64(k), Rows: testBatch(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err = openLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("reopened log has %d records, want 5", len(recs))
	}
	for k, rec := range recs {
		if rec.PrevVersion != uint64(k) {
			t.Errorf("record %d has version %d", k, rec.PrevVersion)
		}
	}
}

// A crash mid-append leaves a torn frame; open must truncate it and
// keep every whole record before it.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := openLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := l.append(&Record{Table: "t", PrevVersion: uint64(k), Rows: testBatch(k)}); err != nil {
			t.Fatal(err)
		}
	}
	validSize := l.size
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	cases := map[string]func([]byte) []byte{
		"partial header": func(d []byte) []byte { return append(d, 0x2A, 0x00) },
		"partial frame":  func(d []byte) []byte { return append(d, 0x10, 0, 0, 0, 1, 2, 3, 4, 0xAA) },
		"flipped tail byte": func(d []byte) []byte {
			d = append([]byte(nil), d...)
			d[len(d)-1] ^= 0xFF
			return d
		},
	}
	for name, mangle := range cases {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			torn := filepath.Join(t.TempDir(), "wal.log")
			if err := os.WriteFile(torn, mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}
			l2, recs, err := openLog(torn)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.close()
			wantRecs := 3
			if name == "flipped tail byte" {
				wantRecs = 2 // the flip corrupts the last whole record
			}
			if len(recs) != wantRecs {
				t.Fatalf("recovered %d records, want %d", len(recs), wantRecs)
			}
			fi, err := os.Stat(torn)
			if err != nil {
				t.Fatal(err)
			}
			if name != "flipped tail byte" && fi.Size() != validSize {
				t.Errorf("torn tail not truncated: %d bytes, want %d", fi.Size(), validSize)
			}
			// Appends must resume cleanly after truncation.
			if err := l2.append(&Record{Table: "t", PrevVersion: 9, Rows: testBatch(9)}); err != nil {
				t.Fatal(err)
			}
			if err := l2.sync(); err != nil {
				t.Fatal(err)
			}
			_, recs2, err := openLog(torn)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs2) != wantRecs+1 {
				t.Errorf("after resume: %d records, want %d", len(recs2), wantRecs+1)
			}
		})
	}
}

// The core crash-recovery property: abandon a store without Close (a
// SIGKILL stand-in — every batch was fsync'd under SyncEvery=1), boot
// a fresh catalog over the same dir, and the recovered table must be
// byte-identical to the live one.
func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cat, live, s, _ := newStoreWithBase(t, dir, Options{SyncEvery: 1, SnapshotEvery: 1000})
	for k := 0; k < 7; k++ {
		if _, err := cat.Append(live, testBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
	// fsync-per-batch, no checkpoint in between: one sync per acked batch.
	if st := s.Stats(); st.Syncs != 7 {
		t.Errorf("Syncs = %d after 7 batches under SyncEvery=1, want 7", st.Syncs)
	}
	wantHash := contentHash(t, live)
	wantVersion := live.Version()
	// No Close: the store is simply abandoned, as a crash would.

	_, recovered, _, info := newStoreWithBase(t, dir, Options{})
	if info.ReplayedBatches != 7 || info.ReplayedRows != 14 {
		t.Errorf("replayed %d batches / %d rows, want 7 / 14", info.ReplayedBatches, info.ReplayedRows)
	}
	if got := contentHash(t, recovered); got != wantHash {
		t.Errorf("recovered ContentHash %s != live %s", got, wantHash)
	}
	if recovered.Version() != wantVersion {
		t.Errorf("recovered version %d != live %d", recovered.Version(), wantVersion)
	}
	if recovered.NumRows() != 14 {
		t.Errorf("recovered %d rows, want 14", recovered.NumRows())
	}
}

// Checkpoints must compact the WAL and leave a snapshot that alone
// (plus any WAL tail) reproduces the live table.
func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	cat, live, s, _ := newStoreWithBase(t, dir, Options{SnapshotEvery: 2})
	for k := 0; k < 5; k++ {
		if _, err := cat.Append(live, testBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Checkpoints != 2 {
		t.Errorf("checkpoints = %d, want 2 (5 batches, SnapshotEvery=2)", st.Checkpoints)
	}
	// One batch since the last checkpoint: the WAL holds exactly it.
	_, recs, err := openLog(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("post-compaction WAL holds %d records, want 1", len(recs))
	}
	if _, err := os.Stat(filepath.Join(dir, "live.snap")); err != nil {
		t.Errorf("snapshot file missing: %v", err)
	}
	wantHash := contentHash(t, live)

	_, recovered, _, info := newStoreWithBase(t, dir, Options{})
	if info.SnapshotsLoaded != 1 || info.ReplayedBatches != 1 {
		t.Errorf("recovery loaded %d snapshots, replayed %d batches; want 1 and 1", info.SnapshotsLoaded, info.ReplayedBatches)
	}
	if got := contentHash(t, recovered); got != wantHash {
		t.Errorf("snapshot+tail recovery diverged: %s != %s", got, wantHash)
	}
}

// A crash between snapshot publication and WAL truncation leaves the
// WAL full of records the snapshot already covers; the version check
// must skip them instead of double-applying.
func TestReplaySkipsSnapshotCoveredBatches(t *testing.T) {
	dir := t.TempDir()
	cat, live, s, _ := newStoreWithBase(t, dir, Options{SnapshotEvery: 1000})
	for k := 0; k < 4; k++ {
		if _, err := cat.Append(live, testBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot the table but "crash" before compaction: write the
	// snapshot through the store's own path, leaving wal.log intact.
	if err := s.CheckpointTable(live); err != nil {
		t.Fatal(err)
	}
	wantHash := contentHash(t, live)

	_, recovered, _, info := newStoreWithBase(t, dir, Options{})
	if info.SkippedBatches != 4 || info.ReplayedBatches != 0 {
		t.Errorf("skipped %d / replayed %d, want 4 / 0", info.SkippedBatches, info.ReplayedBatches)
	}
	if got := contentHash(t, recovered); got != wantHash {
		t.Errorf("double-apply detected: %s != %s", got, wantHash)
	}
}

// A table replaced after batches were logged against it — a
// coordinator re-shipping a whole replica: drop, register, checkpoint
// — must survive a later cadence checkpoint that other tables' appends
// trigger: the checkpoint may not re-snapshot the replaced instance
// over the new one.
func TestReplacedTableSurvivesCadenceCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cat := engine.NewCatalog()
	a, other := engine.MustNewTable("a", testSchema()), engine.MustNewTable("b", testSchema())
	for _, tb := range []*engine.Table{a, other} {
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	s, _, err := Open(Options{Dir: dir, SnapshotEvery: 100}, cat)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetAppendSink(s)
	if _, err := cat.Append(a, testBatch(1)[:1]); err != nil {
		t.Fatal(err)
	}
	replaced := engine.MustNewTable("a", testSchema())
	if _, err := replaced.Append(testBatch(42)); err != nil {
		t.Fatal(err)
	}
	cat.Drop("a")
	if err := cat.Register(replaced); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointTable(replaced); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Append(other, testBatch(9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	cat2 := engine.NewCatalog()
	s2, _, err := Open(Options{Dir: dir}, cat2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := cat2.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 || contentHash(t, got) != contentHash(t, replaced) {
		t.Fatalf("recovered a stale replica: %d rows, want the replacement's 2", got.NumRows())
	}
}

// A crash mid-snapshot leaves a .tmp file; boot must discard it and
// fall back to the previous snapshot generation.
func TestCrashMidSnapshotDiscardsTemp(t *testing.T) {
	dir := t.TempDir()
	cat, live, s, _ := newStoreWithBase(t, dir, Options{})
	if _, err := cat.Append(live, testBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantHash := contentHash(t, live)
	// Simulate the next checkpoint dying mid-write.
	tmp := filepath.Join(dir, "live.snap.tmp")
	if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, recovered, _, _ := newStoreWithBase(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("stale temp snapshot not removed (err=%v)", err)
	}
	if got := contentHash(t, recovered); got != wantHash {
		t.Errorf("recovery after mid-snapshot crash diverged: %s != %s", got, wantHash)
	}
}

// A corrupt snapshot must be sidelined, not brick the boot.
func TestCorruptSnapshotSidelined(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "live.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, info := newStoreWithBase(t, dir, Options{})
	if len(info.CorruptSnapshots) != 1 || info.CorruptSnapshots[0] != "live.snap" {
		t.Fatalf("CorruptSnapshots = %v", info.CorruptSnapshots)
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Errorf("corrupt snapshot not sidelined: %v", err)
	}
}

// Records for dropped tables or stale versions are skipped, counted,
// and never block the records behind them.
func TestReplaySkipsOrphanedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openLog(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	// An orphan (no such table), a stale version, then a good record.
	must := func(e error) {
		if e != nil {
			t.Fatal(e)
		}
	}
	must(l.append(&Record{Table: "ghost", PrevVersion: 0, Rows: testBatch(0)}))
	must(l.append(&Record{Table: "live", PrevVersion: 99, Rows: testBatch(1)}))
	must(l.append(&Record{Table: "live", PrevVersion: 0, Rows: testBatch(2)}))
	must(l.sync())
	must(l.close())

	_, recovered, _, info := newStoreWithBase(t, dir, Options{})
	if info.SkippedBatches != 2 || info.ReplayedBatches != 1 {
		t.Errorf("skipped %d / replayed %d, want 2 / 1", info.SkippedBatches, info.ReplayedBatches)
	}
	if recovered.NumRows() != 2 {
		t.Errorf("recovered %d rows, want 2", recovered.NumRows())
	}
}

func TestStatsShape(t *testing.T) {
	dir := t.TempDir()
	cat, live, s, _ := newStoreWithBase(t, dir, Options{SyncEvery: 1, SnapshotEvery: 3})
	for k := 0; k < 4; k++ {
		if _, err := cat.Append(live, testBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.BatchesLogged != 4 {
		t.Errorf("BatchesLogged = %d", st.BatchesLogged)
	}
	if st.Checkpoints != 1 || st.LastSnapshot.IsZero() {
		t.Errorf("Checkpoints = %d, LastSnapshot = %v", st.Checkpoints, st.LastSnapshot)
	}
	if st.Syncs < 4 {
		t.Errorf("Syncs = %d, want >= 4 with SyncEvery=1", st.Syncs)
	}
	if st.WALBytes == 0 {
		t.Error("WALBytes = 0 with a batch since the last checkpoint")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.LogAppend(live, live.Version(), testBatch(9)); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("LogAppend after Close = %v, want closed error", err)
	}
}

// Table names with filesystem-hostile bytes must map to safe snapshot
// file names and round trip through recovery.
func TestSnapshotFileNameEncoding(t *testing.T) {
	for name, want := range map[string]string{
		"orders":     "orders.snap",
		"../../etc":  "%2E%2E%2F%2E%2E%2Fetc.snap",
		"a b.c":      "a%20b%2Ec.snap",
		"läserwave":  "l%C3%A4serwave.snap",
		"UPPER_low9": "UPPER_low9.snap",
	} {
		if got := snapshotFileName(name); got != want {
			t.Errorf("snapshotFileName(%q) = %q, want %q", name, got, want)
		}
	}

	dir := t.TempDir()
	cat := engine.NewCatalog()
	tb := engine.MustNewTable("we ird/näme", testSchema())
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(Options{Dir: dir}, cat)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetAppendSink(s)
	if _, err := cat.Append(tb, testBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	cat2 := engine.NewCatalog()
	if _, _, err := Open(Options{Dir: dir}, cat2); err != nil {
		t.Fatal(err)
	}
	got, err := cat2.Table("we ird/näme")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 {
		t.Errorf("recovered %d rows, want 2", got.NumRows())
	}
}

// The durable ack contract: a sink error must surface to the
// Catalog.Append caller so nothing acks a lost batch.
func TestSinkErrorFailsAppend(t *testing.T) {
	dir := t.TempDir()
	cat, live, s, _ := newStoreWithBase(t, dir, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Append(live, testBatch(1)); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Errorf("append over closed store = %v, want not-durable error", err)
	}
}

func TestScanRecordsNeverReadsPastValidPrefix(t *testing.T) {
	var buf bytes.Buffer
	for k := 0; k < 3; k++ {
		payload, err := encodeRecord(&Record{Table: "t", PrevVersion: uint64(k), Rows: testBatch(k)})
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, frameHeaderSize+len(payload))
		writeFrameHeader(frame, payload)
		copy(frame[frameHeaderSize:], payload)
		buf.Write(frame)
	}
	data := buf.Bytes()
	recs, validLen := scanRecords(data)
	if len(recs) != 3 || validLen != int64(len(data)) {
		t.Fatalf("scan = %d records, %d valid bytes", len(recs), validLen)
	}
	// Corrupting any single byte must still yield a clean prefix.
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x55
		recs, validLen := scanRecords(mut)
		if validLen > int64(len(mut)) {
			t.Fatalf("byte %d: valid prefix %d exceeds input", i, validLen)
		}
		if len(recs) > 3 {
			t.Fatalf("byte %d: scan invented records", i)
		}
	}
}
