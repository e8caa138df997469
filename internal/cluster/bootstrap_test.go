package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/frontend"
)

// Replica-rebuild tests: a joining worker that is empty or diverged is
// brought in line from the coordinator's live replica before admission
// (snapshot push + ContentHash handshake), so a fresh node can join a
// cluster without pre-provisioned data and a stale one cannot poison
// scatter-gather with mismatched rows.

// tableHashes snapshots name -> ContentHash for every table of a DB.
func tableHashes(t *testing.T, db *seedb.DB) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range db.Tables() {
		tb, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := tb.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = h
	}
	return out
}

func startCoordinator(t *testing.T, rows int) (*httptest.Server, *seedb.DB, *seedb.ClusterBackend) {
	t.Helper()
	db := newDB(t, rows)
	b := db.ShardRemote(nil, 5*time.Second, seedb.ClusterConfig{})
	srv := httptest.NewServer(frontend.New(db, nil, log.New(testWriter{t}, "coord: ", 0)))
	t.Cleanup(srv.Close)
	return srv, db, b
}

// TestRegisterBootstrapsDivergedWorker: a worker holding different data
// (fewer rows, different hashes) registers; the coordinator pushes its
// own replicas, verifies the handshake, and only then admits the shard.
// Scatter-gather afterwards produces single-node bytes with zero
// fingerprint mismatches.
func TestRegisterBootstrapsDivergedWorker(t *testing.T) {
	ctx := context.Background()
	coordSrv, coordDB, b := startCoordinator(t, 3000)
	worker, workerDB := startWorker(t, 1000) // diverged replica

	want := tableHashes(t, coordDB)
	if got := tableHashes(t, workerDB); got["orders"] == want["orders"] {
		t.Fatal("test premise broken: worker should start diverged")
	}

	resp, err := httpPostJSON(coordSrv.URL+"/api/shard/register", fmt.Sprintf(`{"url":%q}`, worker.URL))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Added     bool                     `json:"added"`
		Rebalance *cluster.RebalanceReport `json:"rebalance"`
	}
	if err := json.Unmarshal([]byte(resp), &reg); err != nil {
		t.Fatalf("registration response %q: %v", resp, err)
	}
	if !reg.Added || reg.Rebalance == nil || reg.Rebalance.Shipped != len(coordDB.Tables()) {
		t.Fatalf("registration should add the worker and report every table shipped: %s", resp)
	}
	if got := tableHashes(t, workerDB); got["orders"] != want["orders"] || got["synthetic"] != want["synthetic"] {
		t.Fatalf("worker not rebuilt to coordinator state:\ngot  %v\nwant %v", got, want)
	}

	got, err := coordDB.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := newDB(t, 3000)
	wantRes, err := plain.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(wantRes) {
		t.Fatal("bootstrapped-worker execution changed result bytes")
	}
	c := b.Counters()
	if c.ShardCalls == 0 {
		t.Fatal("bootstrapped worker was never used")
	}
	if c.Mismatches != 0 {
		t.Fatalf("bootstrapped worker still mismatching: %+v", c)
	}
}

// TestRegisterBootstrapsEmptyWorker: a node with no tables at all joins
// and is fully provisioned by the coordinator.
func TestRegisterBootstrapsEmptyWorker(t *testing.T) {
	ctx := context.Background()
	coordSrv, coordDB, b := startCoordinator(t, 2000)

	workerDB := seedb.Open() // nothing registered
	worker := httptest.NewServer(frontend.New(workerDB, nil, log.New(testWriter{t}, "worker: ", 0)))
	t.Cleanup(worker.Close)

	resp, err := httpPostJSON(coordSrv.URL+"/api/shard/register", fmt.Sprintf(`{"url":%q}`, worker.URL))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, `"added":true`) {
		t.Fatalf("registration response: %s", resp)
	}
	want := tableHashes(t, coordDB)
	got := tableHashes(t, workerDB)
	for name, h := range want {
		if got[name] != h {
			t.Fatalf("table %q not provisioned: got %q want %q", name, got[name], h)
		}
	}

	res, err := coordDB.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := newDB(t, 2000)
	wantRes, err := plain.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(res) != render(wantRes) {
		t.Fatal("empty-joiner execution changed result bytes")
	}
	if c := b.Counters(); c.Mismatches != 0 {
		t.Fatalf("provisioned worker mismatching: %+v", c)
	}
}

// TestAddWorkerShipsOnlyWhatDiverged exercises AddWorker directly (the
// replicated layout's replica bootstrap): a diverged worker is shipped
// every table, re-announcing a just-synced worker ships nothing, and
// an identically-loaded worker ships nothing either.
func TestAddWorkerShipsOnlyWhatDiverged(t *testing.T) {
	ctx := context.Background()
	coordDB := newDB(t, 2000)
	b := coordDB.ShardRemote(nil, 5*time.Second, seedb.ClusterConfig{})

	worker, _ := startWorker(t, 500)
	shard := cluster.NewRemoteShard(worker.URL, 5*time.Second)
	rep, added, err := b.AddWorker(ctx, shard)
	if err != nil {
		t.Fatal(err)
	}
	if !added || rep.Shipped != len(coordDB.Tables()) {
		t.Fatalf("diverged worker should be shipped every table, got %+v", rep)
	}
	rep2, added, err := b.AddWorker(ctx, shard)
	if err != nil {
		t.Fatal(err)
	}
	if added || rep2.Shipped != 0 || rep2.PerWorker[worker.URL] != len(coordDB.Tables()) {
		t.Fatalf("re-announcing should find everything matched: %+v", rep2)
	}

	inStep, _ := startWorker(t, 2000)
	rep3, _, err := b.AddWorker(ctx, cluster.NewRemoteShard(inStep.URL, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Shipped != 0 || len(rep3.Errors) != 0 {
		t.Fatalf("identically-loaded worker should not be shipped anything, got %+v", rep3)
	}
}

// TestBootstrapSyncSurvivesWorkerRestart: with durability on, a synced
// replica is checkpointed immediately, so the worker comes back from
// its own crash already in step — the rebuilt state is durable, not
// just resident.
func TestBootstrapSyncSurvivesWorkerRestart(t *testing.T) {
	ctx := context.Background()
	coordDB := newDB(t, 1500)
	b := coordDB.ShardRemote(nil, 5*time.Second, seedb.ClusterConfig{})
	want := tableHashes(t, coordDB)

	dir := t.TempDir()
	workerDB := seedb.Open()
	if _, err := workerDB.EnableDurability(dir, 1, 0); err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(frontend.New(workerDB, nil, log.New(testWriter{t}, "worker: ", 0)))
	t.Cleanup(worker.Close)

	rep, _, err := b.AddWorker(ctx, cluster.NewRemoteShard(worker.URL, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shipped != len(coordDB.Tables()) {
		t.Fatalf("empty durable worker should be shipped everything, got %+v", rep)
	}
	// Crash the worker (abandon, no CloseDurability) and reboot an
	// empty process over the same data dir.
	worker.Close()
	rebooted := seedb.Open()
	info, err := rebooted.EnableDurability(dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotsLoaded != len(want) {
		t.Fatalf("reboot should restore %d synced snapshots, got %+v", len(want), info)
	}
	if got := tableHashes(t, rebooted); got["orders"] != want["orders"] || got["synthetic"] != want["synthetic"] {
		t.Fatalf("rebooted worker lost synced replicas:\ngot  %v\nwant %v", got, want)
	}
	// And it passes a fresh handshake with zero pushes.
	rebootedSrv := httptest.NewServer(frontend.New(rebooted, nil, log.New(testWriter{t}, "worker2: ", 0)))
	t.Cleanup(rebootedSrv.Close)
	rep2, _, err := b.AddWorker(ctx, cluster.NewRemoteShard(rebootedSrv.URL, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Shipped != 0 || len(rep2.Errors) != 0 {
		t.Fatalf("recovered replicas should already match, got %+v", rep2)
	}
}
