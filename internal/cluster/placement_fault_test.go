package cluster_test

// Fault-injection for the placement layer, in the gate-backend style
// of fault_test.go: MemberShard.SetGate kills a worker at an exact
// point in the protocol — mid-query, mid-rebalance — and every test
// holds the same line: recommendation bytes never change, only the
// route taken and the health/fault counters do.

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/engine"
)

var errKilled = errors.New("injected: worker killed")

// placeManual builds a placement DB over n gate-controllable members,
// returning the members alongside the backend (PlaceMembers hides
// them, and fault tests need SetGate and catalog access).
func placeManual(t *testing.T, rows, n int, cfg seedb.PlacementConfig) (*seedb.DB, *seedb.PlacementBackend, []*seedb.MemberShard) {
	t.Helper()
	ctx := context.Background()
	db := newDB(t, rows)
	b, err := db.PlaceMembers(ctx, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]*seedb.MemberShard, n)
	for i := range members {
		members[i] = seedb.NewMemberShard("gate-" + string(rune('a'+i)))
		if _, _, err := b.AddWorker(ctx, members[i]); err != nil {
			t.Fatal(err)
		}
	}
	return db, b, members
}

// corruptPlacement re-ships placement name to m behind the
// coordinator's back with its last row replaced: the same row count at
// the same position, so it slots back into its segment between its
// neighbours, holding different bytes.
func corruptPlacement(t *testing.T, db *seedb.DB, b *seedb.ClusterBackend, m *cluster.MemberShard, name string) {
	t.Helper()
	dump, err := b.Dump()
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range dump.Tables {
		for _, p := range tp.Placements {
			if p.Fragment != name {
				continue
			}
			src, err := db.Table(tp.Table)
			if err != nil {
				t.Fatal(err)
			}
			frag, err := src.ExtractRange(name, p.RowLo, p.RowHi-1)
			if err != nil {
				t.Fatal(err)
			}
			typed, err := frag.ParseRows(ingestRows(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := frag.Append(typed); err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := engine.WriteTableSnapshot(&snap, frag); err != nil {
				t.Fatal(err)
			}
			if _, _, err := m.Store().Sync(name, p.RowLo, &snap); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("the coordinator has no placement %s", name)
}

// TestPlacementWorkerDiesMidQuery: a worker that answers its first
// exchange and then drops dead inside the next one loses that
// exchange's ranges to the surviving owner — bytes identical, retries
// counted, corpse marked unhealthy, no local failover needed at rf=2.
// A Recommend is one exchange per worker, so the worker answers one
// recommendation whole and dies during the next.
func TestPlacementWorkerDiesMidQuery(t *testing.T) {
	ctx := context.Background()
	const rows = 4000
	cfg := placementConfig(2)
	cfg.Cooldown = time.Hour // no half-open re-dials mid-test
	db, b, members := placeManual(t, rows, 2, cfg)

	var execs atomic.Int64
	members[1].SetGate(func(op string) error {
		if op == "exec" && execs.Add(1) > 1 {
			return errKilled
		}
		return nil
	})

	if _, err := db.RecommendSQL(ctx, "SELECT * FROM synthetic WHERE d0 = 'd0_v2'", testOptions()); err != nil {
		t.Fatal(err)
	}
	if n := memberExecs(b, members[1].ID()); n != 1 {
		t.Fatalf("the worker must answer the first recommendation's exchange before it dies, got %d exchanges", n)
	}
	if c := b.Counters(); c.Retries != 0 {
		t.Fatalf("no retry before the worker dies, got %+v", c)
	}

	got, err := db.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := newDB(t, rows).RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("mid-query worker death changed result bytes")
	}
	c := b.Counters()
	if c.Retries == 0 {
		t.Fatalf("expected retries against the dying worker, got %+v", c)
	}
	if c.Failovers != 0 {
		t.Fatalf("the surviving owner covers every placement at rf=2, got failovers: %+v", c)
	}
	unhealthy := 0
	for _, ws := range b.Status() {
		if !ws.Healthy {
			unhealthy++
		}
	}
	if unhealthy != 1 {
		t.Fatalf("expected exactly one unhealthy worker, got %d", unhealthy)
	}

	// The worker "restarts": gate cleared, health probe brings it back,
	// and the next query uses it again.
	members[1].SetGate(nil)
	b.HealthCheck(ctx)
	execsBefore := memberExecs(b, members[1].ID())
	if _, err := db.RecommendSQL(ctx, "SELECT * FROM synthetic WHERE d0 = 'd0_v1'", testOptions()); err != nil {
		t.Fatal(err)
	}
	if memberExecs(b, members[1].ID()) <= execsBefore {
		t.Fatal("recovered worker was never routed to again")
	}
}

func memberExecs(b *seedb.PlacementBackend, id string) int64 {
	for _, ws := range b.Status() {
		if ws.ID == id {
			return ws.Execs
		}
	}
	return -1
}

// TestPlacementAllOwnersDownDegrades: when every owner of a placement
// is dead, its ranges run on the coordinator's replica — same bytes,
// failovers counted. This is the rf=1 worst case.
func TestPlacementAllOwnersDownDegrades(t *testing.T) {
	ctx := context.Background()
	const rows = 3000
	cfg := placementConfig(1)
	cfg.Cooldown = time.Hour
	db, b, members := placeManual(t, rows, 2, cfg)
	for _, m := range members {
		m.SetGate(func(op string) error {
			if op == "exec" {
				return errKilled
			}
			return nil
		})
	}

	got, err := db.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := newDB(t, rows).RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("fully degraded execution changed result bytes")
	}
	if c := b.Counters(); c.Failovers == 0 {
		t.Fatalf("expected local failover with every owner down, got %+v", c)
	}
}

// TestPlacementDisableFailoverSurfacesOutage: with failover disabled,
// an unowned range is an error, not a silent local scan.
func TestPlacementDisableFailoverSurfacesOutage(t *testing.T) {
	ctx := context.Background()
	cfg := placementConfig(1)
	cfg.Cooldown = time.Hour
	cfg.DisableFailover = true
	db, _, members := placeManual(t, 3000, 1, cfg)
	members[0].SetGate(func(op string) error {
		if op == "exec" {
			return errKilled
		}
		return nil
	})
	if _, err := db.RecommendSQL(ctx, testQuery, testOptions()); err == nil {
		t.Fatal("DisableFailover must surface a fleet-wide outage as an error")
	}
}

// TestPlacementCorruptFragmentDegrades: a worker whose fragment bytes
// silently diverged is refused by the content-hash handshake — no
// retry against the same owner, hold invalidated, bytes served by the
// other owner — and the next rebalance re-ships the true fragment.
func TestPlacementCorruptFragmentDegrades(t *testing.T) {
	ctx := context.Background()
	const rows = 3000
	cfg := placementConfig(2)
	cfg.Cooldown = time.Hour
	db, b, members := placeManual(t, rows, 2, cfg)

	// Corrupt the middle orders placement on one member behind the
	// coordinator's back: it sits inside the member's one orders
	// segment, between two placements that stay true.
	if segs := members[1].Executor().Catalog().TableNames(); !slices.Contains(segs, "orders__p0") || slices.Contains(segs, "orders__p1") {
		t.Fatalf("member-1 should hold orders as one segment, holds %v", segs)
	}
	corruptPlacement(t, db, b, members[1], "orders__p1")

	q := "SELECT * FROM orders WHERE category = 'Furniture'"
	got, err := db.RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := newDB(t, rows).RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("corrupt fragment changed result bytes")
	}
	if c := b.Counters(); c.Mismatches == 0 {
		t.Fatalf("hash mismatch must be counted, got %+v", c)
	}

	// Rebalance heals the corruption: the invalidated hold is
	// re-shipped from the coordinator's replica and verified.
	rep, err := b.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shipped == 0 || len(rep.Errors) != 0 {
		t.Fatalf("expected a clean healing re-ship, got %+v", rep)
	}
	dump, err := b.Dump()
	if err != nil {
		t.Fatal(err)
	}
	assertFullyHeld(t, dump)
}

// TestPlacementWorkerDiesMidRebalance: a joining worker dies partway
// through receiving its fragments. The pass reports the failures and
// completes; queries stay byte-identical through the surviving owners;
// and once the worker is back, a second rebalance converges the map.
func TestPlacementWorkerDiesMidRebalance(t *testing.T) {
	ctx := context.Background()
	const rows = 6000
	cfg := placementConfig(2)
	cfg.Cooldown = time.Hour
	db, b, _ := placeManual(t, rows, 2, cfg)

	want, err := newDB(t, rows).RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}

	// The joiner accepts its first two fragments, then dies.
	joiner := seedb.NewMemberShard("gate-joiner")
	var syncs atomic.Int64
	joiner.SetGate(func(op string) error {
		if op == "sync" && syncs.Add(1) > 2 {
			return errKilled
		}
		return nil
	})
	rep, added, err := b.AddWorker(ctx, joiner)
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("joiner not added")
	}
	if len(rep.Errors) == 0 {
		t.Fatalf("mid-rebalance death must be reported, got %+v", rep)
	}
	if rep.Shipped == 0 {
		t.Fatalf("the fragments accepted before death count as shipped, got %+v", rep)
	}

	// Queries in the torn state: the joiner is skipped (dead and/or
	// not holding), every placement still has a live pre-join owner.
	got, err := db.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("torn rebalance state changed result bytes")
	}

	// Worker restarts; the next pass ships what's missing and the map
	// converges: every owner of every placement verifiably holds it.
	joiner.SetGate(nil)
	rep2, err := b.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Errors) != 0 || rep2.Shipped == 0 {
		t.Fatalf("post-restart rebalance should converge cleanly, got %+v", rep2)
	}
	dump, err := b.Dump()
	if err != nil {
		t.Fatal(err)
	}
	assertFullyHeld(t, dump)
	got, err = db.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("converged post-churn execution changed result bytes")
	}
}

func assertFullyHeld(t *testing.T, dump *cluster.PlacementDump) {
	t.Helper()
	for _, tp := range dump.Tables {
		for _, p := range tp.Placements {
			for _, o := range p.Owners {
				if !o.Held {
					t.Fatalf("%s placement %d not held by owner %s after convergence", tp.Table, p.Index, o.Worker)
				}
			}
		}
	}
}
