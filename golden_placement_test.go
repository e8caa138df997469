package seedb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Golden placement tests: data-partitioned execution — tables cut into
// chunk-aligned placements, scattered over consistent-hash-owned
// fragments on member workers — must be byte-identical to single-node
// execution on the committed golden corpus, for every replication
// factor and fleet size, with ZERO golden regeneration. Fragments
// start on the engine's absolute 1024-row grid, partials merge with
// exact arithmetic, and sampling is re-anchored per fragment
// (Query.SampleBase); this suite is what makes those claims load-
// bearing rather than aspirational.

var goldenPlacementTopologies = []struct{ rf, workers int }{
	{1, 1}, {1, 2}, {1, 4},
	{2, 1}, {2, 2}, {2, 4},
}

// goldenFleetSizes are the member counts the golden suites scatter
// over beyond the topology matrix above.
var goldenFleetSizes = []int{1, 2, 4, 8}

// assertScattered fails unless b's queries went to its workers, every
// one served: worker exchanges happened, and nothing failed over or
// mismatched.
func assertScattered(t *testing.T, what string, b *ClusterBackend) {
	t.Helper()
	if c := b.Counters(); c.ShardCalls == 0 || c.Failovers != 0 || c.Mismatches != 0 {
		t.Fatalf("%s: want every task served by a worker: %+v", what, c)
	}
}

// placedGoldenDB builds the golden corpus with a member fleet holding
// its placements. One grid cell per placement so the 5000-row tables
// split into 5 placements each.
func placedGoldenDB(t *testing.T, rf, workers int) (*DB, *PlacementBackend) {
	t.Helper()
	db := goldenDB(t)
	b, err := db.PlaceMembers(context.Background(), workers,
		PlacementConfig{Replication: rf, PlacementChunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	return db, b
}

func TestGoldenPlacedRecommendations(t *testing.T) {
	ctx := context.Background()
	for _, metric := range []string{"emd", "kl", "js"} {
		for qi, query := range goldenQueries {
			name := fmt.Sprintf("%s_q%d", metric, qi)
			t.Run(name, func(t *testing.T) {
				opts := goldenOptions(metric)
				path := filepath.Join("testdata", "golden", name+".golden")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run TestGoldenRecommendations with -update): %v", err)
				}

				for _, topo := range goldenPlacementTopologies {
					db, b := placedGoldenDB(t, topo.rf, topo.workers)
					res, err := db.RecommendSQL(ctx, query, opts)
					if err != nil {
						t.Fatalf("rf=%d workers=%d: %v", topo.rf, topo.workers, err)
					}
					if got := renderGolden(res); got != string(want) {
						t.Fatalf("rf=%d workers=%d differs from single-node golden %s:\ngot:\n%s\nwant:\n%s",
							topo.rf, topo.workers, path, got, want)
					}
					if c := b.Counters(); c.Failovers != 0 || c.Mismatches != 0 {
						t.Fatalf("rf=%d workers=%d: healthy fleet degraded: %+v", topo.rf, topo.workers, c)
					}
				}

				// Placement + service layer (exec cache keyed on the
				// epoch-scoped signature): cold and warm both golden.
				db, _ := placedGoldenDB(t, 2, 4)
				db.Serve(ServeConfig{})
				c1, err := db.RecommendSQL(ctx, query, opts)
				if err != nil {
					t.Fatal(err)
				}
				c2, err := db.RecommendSQL(ctx, query, opts)
				if err != nil {
					t.Fatal(err)
				}
				if st := db.CacheStats(); st.Hits == 0 {
					t.Fatalf("second placed cached run should hit: %+v", st)
				}
				if cold, warm := renderGolden(c1), renderGolden(c2); cold != string(want) || warm != string(want) {
					t.Fatal("placed cache-on runs differ from golden")
				}
			})
		}
	}
}

// TestGoldenShardedHigherParallelism: the placed scatter composes with
// per-scan parallelism without changing bytes (the property that let
// the exec cache drop Parallelism from its keys).
func TestGoldenShardedHigherParallelism(t *testing.T) {
	opts := goldenOptions("emd")
	opts.Parallelism = 7 // deliberately odd

	want, err := os.ReadFile(filepath.Join("testdata", "golden", "emd_q0.golden"))
	if err != nil {
		t.Fatal(err)
	}
	db, b := placedGoldenDB(t, 2, 3)
	res, err := db.RecommendSQL(context.Background(), goldenQueries[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderGolden(res); got != string(want) {
		t.Fatalf("parallelism 7 over rf=2 on 3 workers changed bytes:\n%s\nvs\n%s", got, want)
	}
	assertScattered(t, "parallelism 7", b)
}

// TestGoldenPlacementAppendStraddle: appends that straddle placement
// boundaries — growing the last partial fragment on its owners AND
// giving birth to new placements mid-batch — leave every subsequent
// query byte-identical to a cold single-node scan of the grown table.
// The deltas deliberately cross the 5120-row placement boundary in the
// first batch and add several whole placements after.
func TestGoldenPlacementAppendStraddle(t *testing.T) {
	ctx := context.Background()
	opts := goldenOptions("emd")
	query := goldenQueries[0]
	deltas := []int{137, 1024, 2600}

	// Cold reference: a plain instance with the same final contents.
	cold := goldenDB(t)
	tb, err := cold.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		typed, err := tb.ParseRows(goldenAppendRows(d, i*1000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Append(typed); err != nil {
			t.Fatal(err)
		}
	}
	want, err := cold.RecommendSQL(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := renderGolden(want)

	// Live placed instance: primed before each append (so fragment
	// hashes and exec-cache state exist to be invalidated), appending
	// through DB.Append — which must route through the placement
	// ingest path, forwarding deltas to fragment owners.
	db, b := placedGoldenDB(t, 2, 4)
	db.Serve(ServeConfig{})
	ltb, err := db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.RecommendSQL(ctx, query, opts); err != nil {
		t.Fatal(err)
	}
	shippedBefore := b.Counters().FragmentsShipped
	for i, d := range deltas {
		typed, err := ltb.ParseRows(goldenAppendRows(d, i*1000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Append("orders", typed); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RecommendSQL(ctx, query, opts); err != nil {
			t.Fatalf("after delta %d: %v", i, err)
		}
	}
	res, err := db.RecommendSQL(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderGolden(res); got != wantBytes {
		t.Fatalf("placed query after boundary-straddling appends differs from cold scan:\n%s\nvs\n%s", got, wantBytes)
	}
	c := b.Counters()
	if c.IngestRows == 0 || c.FragmentsShipped <= shippedBefore {
		t.Fatalf("appends did not route through placement ingest (new placements must be shipped): %+v", c)
	}
	if c.Failovers != 0 || c.Mismatches != 0 {
		t.Fatalf("healthy fleet degraded during appends: %+v", c)
	}

	// The untouched synthetic table's goldens still bind afterwards.
	synWant, err := os.ReadFile(filepath.Join("testdata", "golden", "emd_q1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	synRes, err := db.RecommendSQL(ctx, goldenQueries[1], opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderGolden(synRes); got != string(synWant) {
		t.Fatal("appending to orders perturbed the synthetic goldens")
	}
}
