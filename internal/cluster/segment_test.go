package cluster_test

// Segments: a worker keeps the placements it owns of a table as
// contiguous segment tables. These tests pin that every way a segment
// is built, cut and grown serves the solo bytes, that a placement
// inside one is verified and refused on its own, that an exchange is
// one scan per segment run, and that a durable worker comes back from
// its data dir holding what it held.

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/engine"
	"seedb/internal/frontend"
	"seedb/internal/obs"
)

// segmentsOf lists m's segment tables of source.
func segmentsOf(m *seedb.MemberShard, source string) []string {
	var out []string
	for _, name := range m.Catalog().TableNames() {
		if strings.HasPrefix(name, source+"__p") {
			out = append(out, name)
		}
	}
	return out
}

// TestSegmentEquivalence: every way the placed layout builds, cuts and
// grows a worker's segments answers with the solo bytes — rf 1 over
// four workers (scattered single-placement segments); a leave that
// fills the gaps of a segment and a join that cuts placements out of
// its middle; an append that grows the last placement and one that
// creates the next; and a corrupted placement in a segment's middle,
// refused alone while its neighbours are served.
func TestSegmentEquivalence(t *testing.T) {
	ctx := context.Background()
	const rows = 9000 // 9 placements of one chunk; the last holds 808 rows
	const q = "SELECT * FROM orders WHERE category = 'Technology'"
	solo := func(t *testing.T, appends ...int) string {
		t.Helper()
		db := newDB(t, rows)
		for _, n := range appends {
			appendOrders(t, db, n)
		}
		res, err := db.RecommendSQL(ctx, q, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		return render(res)
	}
	check := func(t *testing.T, stage string, db *seedb.DB, b *seedb.ClusterBackend, want string) {
		t.Helper()
		res, err := db.RecommendSQL(ctx, q, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if render(res) != want {
			t.Fatalf("%s: bytes differ from solo", stage)
		}
		if c := b.Counters(); c.Failovers != 0 || c.Retries != 0 || c.ShardCalls == 0 {
			t.Fatalf("%s: the fleet did not serve cleanly: %+v", stage, c)
		}
	}
	cfg := func(rf int) seedb.ClusterConfig {
		c := placementConfig(rf)
		c.Cooldown = time.Hour
		return c
	}

	t.Run("rf1-scattered", func(t *testing.T) {
		db, b, members := placeManual(t, rows, 4, cfg(1))
		check(t, "cold", db, b, solo(t))
		scattered := 0
		for _, m := range members {
			if n := len(segmentsOf(m, "orders")); n > 1 {
				scattered++
			}
		}
		if scattered == 0 {
			t.Fatal("rf=1 over 4 workers left every worker one orders segment; the case tests nothing")
		}
	})

	t.Run("leave-fills-join-cuts", func(t *testing.T) {
		db, b, members := placeManual(t, rows, 2, cfg(1))
		want := solo(t)
		stay := members[0]
		if n := len(segmentsOf(stay, "orders")); n < 2 {
			t.Fatalf("%s holds %d orders segments, want a gap to fill", stay.ID(), n)
		}
		// The leaver's placements move into the gaps between the stayer's
		// segments, joining them into one.
		if _, _, err := b.RemoveWorker(ctx, members[1].ID()); err != nil {
			t.Fatal(err)
		}
		if got := segmentsOf(stay, "orders"); len(got) != 1 {
			t.Fatalf("after the leave %s holds orders as %v, want one segment", stay.ID(), got)
		}
		check(t, "after leave", db, b, want)
		// A joiner takes placements back, cut out of the segment. Joiners
		// are tried until one cuts a placement out of its middle; each
		// that does not leaves again, filling what it cut.
		middle := false
		for j := 0; j < 8 && !middle; j++ {
			joiner := seedb.NewMemberShard(fmt.Sprintf("gate-z%d", j))
			rep, _, err := b.AddWorker(ctx, joiner)
			if err != nil || rep.Dropped == 0 {
				t.Fatalf("the join dropped nothing from %s: %v %+v", stay.ID(), err, rep)
			}
			held := heldLike(t, stay, "orders__p")
			has := func(i int) bool { return slices.Contains(held, cluster.FragmentName("orders", i)) }
			for i := 1; i < 8; i++ {
				middle = middle || has(i-1) && !has(i) && has(i+1)
			}
			check(t, "after join "+joiner.ID(), db, b, want)
			if !middle {
				if _, _, err := b.RemoveWorker(ctx, joiner.ID()); err != nil {
					t.Fatal(err)
				}
				check(t, "after "+joiner.ID()+" left", db, b, want)
			}
		}
		if !middle {
			t.Fatal("no join cut a placement out of the middle of a segment")
		}
	})

	t.Run("append-grows-then-creates", func(t *testing.T) {
		db, b, members := placeManual(t, rows, 2, cfg(2))
		appendOrders(t, db, 100) // placement 8: 808 -> 908 rows
		check(t, "grown", db, b, solo(t, 100))
		appendOrders(t, db, 300) // fills placement 8, creates placement 9
		check(t, "created", db, b, solo(t, 100, 300))
		for _, m := range members {
			if got := segmentsOf(m, "orders"); len(got) != 1 {
				t.Fatalf("%s holds orders as %v, want one segment grown at its end", m.ID(), got)
			}
			if held := heldLike(t, m, "orders__p"); len(held) != 10 {
				t.Fatalf("%s holds %v, want placements 0..9", m.ID(), held)
			}
		}
	})

	t.Run("corrupt-middle", func(t *testing.T) {
		db, b, members := placeManual(t, rows, 2, cfg(2))
		corruptPlacement(t, db, b, members[1], "orders__p4")
		if got := segmentsOf(members[1], "orders"); len(got) != 1 {
			t.Fatalf("the corrupted copy should sit inside the one segment, got %v", got)
		}
		check(t, "corrupted", db, b, solo(t))
		if c := b.Counters(); c.Mismatches != 1 {
			t.Fatalf("want exactly the corrupted placement refused, got %+v", c)
		}
		dump, err := b.Dump()
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range dump.Tables {
			for _, p := range tp.Placements {
				for _, o := range p.Owners {
					if o.Held != (p.Fragment != "orders__p4" || o.Worker != members[1].ID()) {
						t.Fatalf("%s on %s: held=%v, want only orders__p4 on %s cleared", p.Fragment, o.Worker, o.Held, members[1].ID())
					}
				}
			}
		}
	})
}

// TestWorkerScanSpans: a worker records one worker-scan span per scan —
// under the coordinator's trace for an in-process member, in its own
// ring under the coordinator's trace ID over HTTP — so "scans per
// exchange" reads off the trace: one per worker at rf = workers.
func TestWorkerScanSpans(t *testing.T) {
	ctx := context.Background()
	count := func(spans []obs.SpanDump) (scans, placements int) {
		for _, sp := range spans {
			if sp.Name == "worker-scan" {
				scans++
				if sp.Attrs["table"] == "" || sp.Attrs["rows"] == "" {
					t.Fatalf("worker-scan span without its attributes: %+v", sp)
				}
				var n int
				fmt.Sscan(sp.Attrs["placements"], &n)
				placements += n
			}
		}
		return scans, placements
	}

	_, b, _ := placeSpies(t, 2, 2, seedb.ClusterConfig{})
	tracer := obs.NewTracer(4)
	tr := tracer.New("members")
	if _, err := b.RunSharedScan(obs.ContextWithTrace(ctx, tr), exchangeQuery(), exchangeSets); err != nil {
		t.Fatal(err)
	}
	tracer.Finish(tr)
	d, _ := tracer.Get("members")
	if scans, placements := count(d.Spans); scans != 2 || placements != 13 {
		t.Fatalf("in-process: want 2 worker-scan spans covering 13 placements, got %d covering %d", scans, placements)
	}

	coord := seedb.Open()
	if err := coord.RegisterTable(seedb.SuperstoreTable("orders", exchangeRows, 1)); err != nil {
		t.Fatal(err)
	}
	w1, _ := startEmptyWorker(t)
	w2, _ := startEmptyWorker(t)
	hb, err := coord.PlaceRemote(ctx, []string{w1.URL, w2.URL}, 10*time.Second, seedb.ClusterConfig{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr = tracer.New("http")
	if _, err := hb.RunSharedScan(obs.ContextWithTrace(ctx, tr), exchangeQuery(), exchangeSets); err != nil {
		t.Fatal(err)
	}
	for _, w := range []*httptest.Server{w1, w2} {
		var wd obs.TraceDump
		mustGetJSON(t, w.URL+"/api/trace?id=http", &wd)
		if scans, _ := count(wd.Spans); scans != 1 {
			t.Fatalf("%s: want one worker-scan span in its exchange, got %d: %+v", w.URL, scans, wd.Spans)
		}
	}
}

// TestDurableWorkerRecoversSegments: a durable worker at rf=2 keeps one
// snapshot per placement — a ship onto a segment's end writes that
// placement's rows, never the segment — and after a crash it reboots
// over its data dir, rebuilds its segments and re-registers with
// nothing shipped; an append then grows the recovered last placement.
func TestDurableWorkerRecoversSegments(t *testing.T) {
	ctx := context.Background()
	const rows = 5000 // 5 placements of one chunk per table
	coord := newDB(t, rows)
	b, err := coord.PlaceRemote(ctx, nil, 5*time.Second, placementConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	boot := func(addr string) (*httptest.Server, *seedb.DB) {
		t.Helper()
		db := seedb.Open()
		if _, err := db.EnableDurability(dir, 1, 0); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewUnstartedServer(frontend.New(db, nil, log.New(io.Discard, "", 0)))
		if addr != "" {
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			hs.Listener.Close()
			hs.Listener = ln
		}
		hs.Start()
		t.Cleanup(hs.Close)
		return hs, db
	}
	peer, _ := startEmptyWorker(t)
	w, wdb := boot("")
	for _, u := range []string{peer.URL, w.URL} {
		if _, _, err := b.AddWorker(ctx, cluster.NewRemoteShard(u, 5*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := newDB(t, rows).RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	query := func(stage string) {
		t.Helper()
		got, err := coord.RecommendSQL(ctx, testQuery, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(want) {
			t.Fatalf("%s: bytes differ from solo", stage)
		}
		if c := b.Counters(); c.Failovers != 0 || c.Mismatches != 0 || c.Retries != 0 {
			t.Fatalf("%s: degraded: %+v", stage, c)
		}
	}
	query("shipped")
	if got := wdb.Tables(); len(got) != len(coord.Tables()) {
		t.Fatalf("the worker holds %v, want one segment per table", got)
	}

	// On disk: one snapshot per placement, each of the placement's rows.
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2*5 {
		t.Fatalf("want one snapshot per placement (10), got %v", snaps)
	}
	perTable := map[string]int{}
	for _, path := range snaps {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := engine.ReadTable(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.NumRows() > engine.ChunkRows {
			t.Fatalf("%s holds %d rows: more than its placement", path, snap.NumRows())
		}
		table, _, _ := strings.Cut(snap.Name(), "__p")
		perTable[table] += snap.NumRows()
	}
	for _, table := range coord.Tables() {
		if perTable[table] != rows {
			t.Fatalf("the snapshots hold %d rows of %s, want %d", perTable[table], table, rows)
		}
	}

	// Crash: abandon the process state, reboot over the same data dir
	// at the same address, and re-register.
	addr := w.Listener.Addr().String()
	w.Close()
	w2, wdb2 := boot(addr)
	rep, added, err := b.AddWorker(ctx, cluster.NewRemoteShard(w2.URL, 5*time.Second))
	if err != nil || added {
		t.Fatalf("re-registration: added=%v err=%v", added, err)
	}
	if rep.Shipped != 0 || len(rep.Errors) != 0 {
		t.Fatalf("a recovered worker should be shipped nothing, got %+v", rep)
	}
	if got := wdb2.Tables(); len(got) != len(coord.Tables()) {
		t.Fatalf("the recovered worker holds %v, want one segment per table", got)
	}
	query("recovered")

	// The recovered last placement grows in place.
	sum, err := b.Ingest(ctx, "orders", ingestRows(30))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sum.Shards {
		if !st.OK {
			t.Fatalf("forward after recovery failed: %+v", st)
		}
	}
	var health struct {
		Tables map[string]cluster.TableState `json:"tables"`
	}
	mustGetJSON(t, w2.URL+"/api/shard/health", &health)
	if st := health.Tables["orders__p4"]; st.Rows != rows-4*1024+30 {
		t.Fatalf("orders__p4 on the recovered worker: %+v", st)
	}
}
