package seedb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Golden shard tests: the replicated layout — every worker holds every
// table whole and each query's window is cut into one grid-aligned
// range per worker — must be byte-identical to single-node execution
// on the committed golden corpus for every fleet size. The engine folds
// float partials on a fixed per-table chunk grid and merges them with
// exact (integer) arithmetic, so EMD/KL/JS utilities match to the last
// bit no matter how the scan is cut.

// replicatedGoldenDB builds the golden corpus coordinating n in-process
// members, each shipped every table whole.
func replicatedGoldenDB(t *testing.T, n int) (*DB, *ClusterBackend) {
	t.Helper()
	db := goldenDB(t)
	b := db.ShardRemote(nil, 0, ClusterConfig{})
	for i := range n {
		if _, _, err := b.AddWorker(context.Background(), NewMemberShard(fmt.Sprintf("member-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return db, b
}

func TestGoldenShardedRecommendations(t *testing.T) {
	ctx := context.Background()
	for _, metric := range []string{"emd", "kl", "js"} {
		for qi, query := range goldenQueries {
			name := fmt.Sprintf("%s_q%d", metric, qi)
			t.Run(name, func(t *testing.T) {
				opts := goldenOptions(metric)

				// The committed single-node golden file is the reference.
				path := filepath.Join("testdata", "golden", name+".golden")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run TestGoldenRecommendations with -update): %v", err)
				}

				for _, n := range goldenFleetSizes {
					db, b := replicatedGoldenDB(t, n)
					res, err := db.RecommendSQL(ctx, query, opts)
					if err != nil {
						t.Fatalf("workers=%d: %v", n, err)
					}
					if got := renderGolden(res); got != string(want) {
						t.Fatalf("workers=%d differs from single-node golden %s:\ngot:\n%s\nwant:\n%s",
							n, path, got, want)
					}
					assertScattered(t, fmt.Sprintf("workers=%d", n), b)
				}
			})
		}
	}
}
