package seedb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Golden recovery tests: the durability guarantee of ISSUE 6, pinned
// end to end. A DB that crashes after acked ingest and reboots from
// its data dir (snapshot checkpoints + WAL tail) must answer queries
// byte-identical to an instance that never restarted — solo and placed
// over every fleet size, with the mutation-version sequence continuing seamlessly so
// fingerprints, content hashes, and the chunk grid never alias. Any
// drift in the WAL encoding, snapshot format, replay ordering, or
// version resumption shows up here as a diff.

// recoveryDeltas is sized so that with SnapshotEvery=2 recovery loads
// both a snapshot checkpoint AND replays a WAL tail on top of it.
var recoveryDeltas = []int{137, 611, 89, 1024, 47}

// appendRecoveryBatches pushes the deltas through DB.Append — the
// catalog seam — so the batches are WAL-logged when durability is on.
func appendRecoveryBatches(t *testing.T, db *DB, deltas []int) {
	t.Helper()
	tb, err := db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		typed, err := tb.ParseRows(goldenAppendRows(d, i*1000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Append("orders", typed); err != nil {
			t.Fatal(err)
		}
	}
}

func ordersState(t *testing.T, db *DB) (hash string, version uint64, rows int) {
	t.Helper()
	tb, err := db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	return h, tb.Version(), tb.NumRows()
}

// TestGoldenRecoveryMatchesNeverRestarted: ingest durably, "crash"
// (abandon the store without closing — every acked batch was fsync'd
// under SyncEvery=1), reboot from the data dir, and compare against a
// memory-only instance that applied the same batches and never
// restarted. Plain and placed rf=2 over 1/2/4/8 members all must agree
// to the byte; each boots its own recovery, so replay idempotence
// across repeated boots is exercised too.
func TestGoldenRecoveryMatchesNeverRestarted(t *testing.T) {
	ctx := context.Background()
	opts := goldenOptions("emd")
	query := goldenQueries[0]

	dir := t.TempDir()
	durable := goldenDB(t)
	if _, err := durable.EnableDurability(dir, 1, 2); err != nil {
		t.Fatal(err)
	}
	appendRecoveryBatches(t, durable, recoveryDeltas)
	wantHash, wantVersion, wantRows := ordersState(t, durable)
	// Crash: the store is abandoned mid-flight, never checkpointed or
	// closed. Anything not already fsync'd would be lost — which under
	// fsync-per-batch must be nothing.

	// Reference: same batches, never durable, never restarted.
	ref := goldenDB(t)
	appendRecoveryBatches(t, ref, recoveryDeltas)
	refHash, refVersion, refRows := ordersState(t, ref)
	if refHash != wantHash || refVersion != wantVersion || refRows != wantRows {
		t.Fatalf("durable ingest diverged from memory-only before any crash: %s/%d/%d vs %s/%d/%d",
			wantHash, wantVersion, wantRows, refHash, refVersion, refRows)
	}
	want, err := ref.RecommendSQL(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := renderGolden(want)

	for i, n := range append([]int{0}, goldenFleetSizes...) {
		rec := goldenDB(t)
		info, err := rec.EnableDurability(dir, 1, 2)
		if err != nil {
			t.Fatalf("workers=%d: recovery: %v", n, err)
		}
		if i == 0 {
			// With 5 batches and SnapshotEvery=2 the dir holds a
			// checkpoint through batch 4 and batch 5 in the WAL: both
			// recovery paths must have fired.
			if info.SnapshotsLoaded == 0 || info.ReplayedBatches == 0 {
				t.Fatalf("recovery should load snapshots AND replay a WAL tail, got %+v", info)
			}
			if len(info.CorruptSnapshots) != 0 {
				t.Fatalf("unexpected corrupt snapshots: %v", info.CorruptSnapshots)
			}
		}
		gotHash, gotVersion, gotRows := ordersState(t, rec)
		if gotHash != wantHash || gotVersion != wantVersion || gotRows != wantRows {
			t.Fatalf("workers=%d: recovered table diverged: hash %s version %d rows %d, want %s %d %d",
				n, gotHash, gotVersion, gotRows, wantHash, wantVersion, wantRows)
		}
		var b *ClusterBackend
		if n > 0 {
			if b, err = rec.PlaceMembers(ctx, n, PlacementConfig{Replication: 2, PlacementChunks: 1}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := rec.RecommendSQL(ctx, query, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		if got := renderGolden(res); got != wantBytes {
			t.Fatalf("workers=%d: recovered query differs from never-restarted:\n%s\nvs\n%s", n, got, wantBytes)
		}
		if b != nil {
			assertScattered(t, fmt.Sprintf("workers=%d", n), b)
		}
		if err := rec.CloseDurability(); err != nil {
			t.Fatalf("workers=%d: close: %v", n, err)
		}
	}
}

// TestGoldenRecoveryTornTail: a crash mid-write leaves garbage after
// the last complete frame. Recovery must truncate the torn tail, keep
// every acked batch, and leave the log appendable.
func TestGoldenRecoveryTornTail(t *testing.T) {
	ctx := context.Background()
	opts := goldenOptions("emd")
	query := goldenQueries[0]
	deltas := recoveryDeltas[:3]

	dir := t.TempDir()
	durable := goldenDB(t)
	// Huge SnapshotEvery: everything stays in the WAL, so the torn
	// tail sits directly behind real records.
	if _, err := durable.EnableDurability(dir, 1, 1_000_000); err != nil {
		t.Fatal(err)
	}
	appendRecoveryBatches(t, durable, deltas)
	wantHash, wantVersion, _ := ordersState(t, durable)

	walPath := filepath.Join(dir, "wal.log")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	cleanSize := st.Size()
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame: plausible length prefix, then the power went out.
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec := goldenDB(t)
	info, err := rec.EnableDurability(dir, 1, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplayedBatches != len(deltas) {
		t.Fatalf("replayed %d batches, want %d (info %+v)", info.ReplayedBatches, len(deltas), info)
	}
	if st, err := os.Stat(walPath); err != nil || st.Size() != cleanSize {
		t.Fatalf("torn tail not truncated: size %d, want %d (err %v)", st.Size(), cleanSize, err)
	}
	gotHash, gotVersion, _ := ordersState(t, rec)
	if gotHash != wantHash || gotVersion != wantVersion {
		t.Fatalf("recovered state diverged after torn tail: %s/%d vs %s/%d", gotHash, gotVersion, wantHash, wantVersion)
	}

	ref := goldenDB(t)
	appendRecoveryBatches(t, ref, deltas)
	want, err := ref.RecommendSQL(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.RecommendSQL(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderGolden(res); got != renderGolden(want) {
		t.Fatalf("post-torn-tail query differs from never-restarted:\n%s\nvs\n%s", got, renderGolden(want))
	}
	if err := rec.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenRecoveryIngestResumes: the mutation-version sequence must
// continue across a restart — batches appended after recovery land on
// the recovered version chain, and a second crash+reboot replays them
// against it. A reset sequence would alias fingerprints (a post-crash
// table masquerading as a pre-crash one in caches) and break replay.
func TestGoldenRecoveryIngestResumes(t *testing.T) {
	ctx := context.Background()
	opts := goldenOptions("emd")
	query := goldenQueries[0]
	before, after := recoveryDeltas[:2], recoveryDeltas[2:]

	dir := t.TempDir()
	durable := goldenDB(t)
	if _, err := durable.EnableDurability(dir, 1, 2); err != nil {
		t.Fatal(err)
	}
	appendRecoveryBatches(t, durable, before)
	// Crash #1, reboot, keep ingesting through the recovered instance.
	rec := goldenDB(t)
	if _, err := rec.EnableDurability(dir, 1, 2); err != nil {
		t.Fatal(err)
	}
	tb, err := rec.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range after {
		typed, err := tb.ParseRows(goldenAppendRows(d, (len(before)+i)*1000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Append("orders", typed); err != nil {
			t.Fatal(err)
		}
	}
	wantHash, wantVersion, wantRows := ordersState(t, rec)
	// Crash #2: abandon again without closing.

	ref := goldenDB(t)
	appendRecoveryBatches(t, ref, recoveryDeltas)
	refHash, refVersion, refRows := ordersState(t, ref)
	if wantHash != refHash || wantVersion != refVersion || wantRows != refRows {
		t.Fatalf("post-recovery ingest diverged from uninterrupted run: %s/%d/%d vs %s/%d/%d",
			wantHash, wantVersion, wantRows, refHash, refVersion, refRows)
	}

	rec2 := goldenDB(t)
	if _, err := rec2.EnableDurability(dir, 1, 2); err != nil {
		t.Fatal(err)
	}
	gotHash, gotVersion, gotRows := ordersState(t, rec2)
	if gotHash != refHash || gotVersion != refVersion || gotRows != refRows {
		t.Fatalf("second recovery diverged: %s/%d/%d vs %s/%d/%d",
			gotHash, gotVersion, gotRows, refHash, refVersion, refRows)
	}
	want, err := ref.RecommendSQL(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec2.RecommendSQL(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderGolden(res); got != renderGolden(want) {
		t.Fatalf("twice-recovered query differs from uninterrupted run:\n%s\nvs\n%s", got, renderGolden(want))
	}
	if err := rec2.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}
