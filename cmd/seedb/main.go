// Command seedb starts the SeeDB web frontend over the four demo
// datasets (paper §4): Store Orders, Election Contributions, Medical
// admissions, and a synthetic table with planted deviations — plus the
// paper's Laserwave running example.
//
// Usage:
//
//	seedb [-addr :8080] [-rows 50000] [-seed 42] [-csv name=path ...]
//
// Durable mode — ingest is write-ahead-logged and checkpointed; a
// restart recovers every acked batch:
//
//	seedb -data-dir /var/lib/seedb [-wal-sync-every 1] [-snapshot-every 256]
//
// Cluster mode — every node loads the same data (same flags); work is
// partitioned per query by row range:
//
//	seedb -addr :8080 -workers http://w1:8081,http://w2:8082   # coordinator
//	seedb -addr :8081 -coordinator http://coord:8080 \
//	      -advertise http://w1:8081                            # worker (self-registers)
//
// Data-partitioned placement mode — workers hold chunk-aligned
// fragments (not full replicas), assigned by a consistent-hash ring
// with the given replication factor; join/leave rebalances only the
// placements that changed owners:
//
//	seedb -addr :8080 -replication 2 [-placement-chunks 4] \
//	      [-workers http://w1:8081,http://w2:8082]             # placement coordinator
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"seedb"
	"seedb/internal/frontend"
)

type csvFlags []string

func (c *csvFlags) String() string { return strings.Join(*c, ",") }
func (c *csvFlags) Set(v string) error {
	*c = append(*c, v)
	return nil
}

func main() {
	log.SetFlags(log.LstdFlags)
	addr := flag.String("addr", ":8080", "listen address")
	rows := flag.Int("rows", 50000, "rows per demo dataset")
	seed := flag.Int64("seed", 42, "demo dataset seed")
	noDemo := flag.Bool("no-demo", false, "skip loading the demo datasets")
	workers := flag.String("workers", "", "comma-separated worker base URLs; makes this node a cluster coordinator")
	replication := flag.Int("replication", 0, "enable data-partitioned placement with this replication factor (workers hold fragments, not full replicas)")
	placementChunks := flag.Int("placement-chunks", 0, "1024-row grid cells per placement (0 = 4, i.e. 4096-row placements)")
	coordinator := flag.String("coordinator", "", "coordinator base URL to register with at startup (worker mode)")
	advertise := flag.String("advertise", "", "base URL this worker advertises to the coordinator (default http://<hostname><addr>)")
	maxRuns := flag.Int("max-concurrent", 0, "max recommendation pipelines executing at once (0 = one per core, min 2)")
	maxQueue := flag.Int("max-queue", 0, "max runs waiting for a worker slot before requests are shed with 503 (0 = 64)")
	requestTimeout := flag.Duration("request-timeout", 0, "deadline for blocking API requests (0 = 60s)")
	streamTimeout := flag.Duration("stream-timeout", 0, "deadline for SSE streaming requests (0 = 10m)")
	debug := flag.Bool("debug", false, "expose net/http/pprof under /debug/pprof/ (profiling; leave off on exposed ports)")
	dataDir := flag.String("data-dir", "", "durable storage directory (WAL + snapshot checkpoints); empty = memory-only")
	walSyncEvery := flag.Int("wal-sync-every", 1, "fsync the WAL once per N ingest batches (1 = before every ack)")
	snapshotEvery := flag.Int("snapshot-every", 0, "checkpoint (snapshot + WAL compaction) once per N ingest batches (0 = 256)")
	var csvs csvFlags
	flag.Var(&csvs, "csv", "load a CSV file as name=path (repeatable)")
	flag.Parse()

	db := seedb.Open()
	if !*noDemo {
		must(db.RegisterTable(seedb.SuperstoreTable("orders", *rows, *seed)))
		must(db.RegisterTable(seedb.ElectionsTable("contributions", *rows, *seed)))
		must(db.RegisterTable(seedb.MedicalTable("admissions", *rows, *seed)))
		syn, _, err := seedb.SyntheticTable(seedb.DefaultSyntheticConfig("synthetic", *rows, *seed))
		must(err)
		must(db.RegisterTable(syn))
		must(db.RegisterTable(seedb.LaserwaveTable("sales", seedb.ScenarioA)))
	}
	for _, spec := range csvs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("seedb: -csv wants name=path, got %q", spec)
		}
		f, err := os.Open(path)
		must(err)
		_, err = db.LoadCSV(name, f)
		_ = f.Close()
		must(err)
	}

	templates := []frontend.QueryTemplate{
		{Name: "Paper example: Laserwave sales", SQL: "SELECT * FROM sales WHERE product = 'Laserwave'",
			Description: "the running example of the paper (Table 1, Figures 1-3)"},
		{Name: "Store Orders: Furniture", SQL: "SELECT * FROM orders WHERE category = 'Furniture'",
			Description: "re-identify the well-known regional furniture losses"},
		{Name: "Store Orders: Technology in Q4", SQL: "SELECT * FROM orders WHERE category = 'Technology' AND order_month = '11-Nov'",
			Description: "seasonal technology sales"},
		{Name: "Elections: Democratic contributions", SQL: "SELECT * FROM contributions WHERE party = 'Democratic'",
			Description: "how Democratic money differs from overall contributions"},
		{Name: "Elections: large donations", SQL: "SELECT * FROM contributions WHERE amount > 500",
			Description: "outliers in a column (template query)"},
		{Name: "Medical: sepsis admissions", SQL: "SELECT * FROM admissions WHERE diagnosis_group = 'Sepsis'",
			Description: "clinical subset with strong age/ward deviations"},
		{Name: "Synthetic: planted subset", SQL: "SELECT * FROM synthetic WHERE d0 = 'd0_v0'",
			Description: "ground-truth planted deviations on d1/m0 and d2/m1"},
	}

	// Durability last in the data-loading sequence: base tables (demo
	// regen + CSV) must exist before recovery so snapshots replace them
	// and WAL records replay on top. Fail-fast here — a server that
	// silently ran memory-only after being asked for a data dir would
	// lose data on its next restart.
	if *dataDir != "" {
		info, err := db.EnableDurability(*dataDir, *walSyncEvery, *snapshotEvery)
		must(err)
		log.Printf("seedb: durable storage at %s (snapshots: %d tables, replayed: %d batches / %d rows, skipped: %d)",
			*dataDir, info.SnapshotsLoaded, info.ReplayedBatches, info.ReplayedRows, info.SkippedBatches)
		for _, name := range info.CorruptSnapshots {
			log.Printf("seedb: WARNING: sidelined corrupt snapshot %s (kept as .corrupt)", name)
		}
	}

	// Execution layout: plain local (default; the executor spreads each
	// scan over the cores) or cluster coordinator over remote workers.
	// Workers need no special mode — every server exposes the shard API
	// — but may self-register with a coordinator.
	switch {
	case *replication > 0:
		// Data-partitioned placement: tables are cut into chunk-aligned
		// placements assigned to workers by a consistent-hash ring;
		// each worker holds only its owned fragments. Workers may also
		// be empty at startup and register later (-coordinator on the
		// worker side works unchanged).
		var urls []string
		if *workers != "" {
			for _, u := range strings.Split(*workers, ",") {
				urls = append(urls, strings.TrimSpace(u))
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		b, err := db.PlaceRemote(ctx, urls, 0, seedb.PlacementConfig{
			Replication:     *replication,
			PlacementChunks: *placementChunks,
		})
		cancel()
		if err != nil {
			log.Printf("seedb: WARNING: placement bring-up incomplete (%v); unreachable ranges fail over to local execution", err)
		}
		st := b.Counters()
		log.Printf("seedb: placement coordinator (%s): %d placements over %d workers, rf=%d",
			b.Signature(), st.Placements, st.Workers, st.Replication)
	case *workers != "":
		urls := strings.Split(*workers, ",")
		for i := range urls {
			urls[i] = strings.TrimSpace(urls[i])
		}
		b := db.ShardRemote(urls, 0, seedb.ClusterConfig{})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		for _, st := range b.HealthCheck(ctx) {
			log.Printf("seedb: worker %s healthy=%v", st.ID, st.Healthy)
		}
		cancel()
		log.Printf("seedb: coordinating %d workers (%s); unhealthy shards fail over to local execution", b.NumWorkers(), b.Signature())
	}

	srv := frontend.NewWithConfig(db, seedb.ServeConfig{
		MaxConcurrentRuns: *maxRuns,
		MaxQueueDepth:     *maxQueue,
	}, templates, log.Default())
	srv.SetTimeouts(*requestTimeout, *streamTimeout)
	if *debug {
		srv.EnableDebug()
		log.Printf("seedb: pprof profiling exposed at /debug/pprof/")
	}

	if *coordinator != "" {
		// Worker mode: announce this node to the coordinator once it is
		// listening. Registration is idempotent, so a retry loop keeps
		// restarts simple.
		self := *advertise
		if self == "" {
			host, _ := os.Hostname()
			self = "http://" + host + *addr
		}
		go registerWithCoordinator(*coordinator, self)
	}

	log.Printf("SeeDB frontend listening on %s (tables: %s)", *addr, strings.Join(db.Tables(), ", "))
	if err := http.ListenAndServe(*addr, srv); err != nil {
		log.Fatal(err)
	}
}

// registerWithCoordinator announces a worker's advertised URL until
// the coordinator accepts it. It never gives up — in an orchestrated
// deploy the workers routinely come up before the coordinator finishes
// loading data — but backs off to 30s between attempts and logs only
// occasionally to keep restarts quiet.
func registerWithCoordinator(coordinator, self string) {
	body := fmt.Sprintf(`{"url":%q}`, self)
	for attempt := 1; ; attempt++ {
		resp, err := http.Post(coordinator+"/api/shard/register", "application/json", bytes.NewReader([]byte(body)))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				log.Printf("seedb: registered with coordinator %s as %s", coordinator, self)
				return
			}
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		if attempt <= 3 || attempt%10 == 0 {
			log.Printf("seedb: registration with %s failed (attempt %d: %v), retrying", coordinator, attempt, err)
		}
		backoff := time.Duration(attempt) * time.Second
		if backoff > 30*time.Second {
			backoff = 30 * time.Second
		}
		time.Sleep(backoff)
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedb:", err)
		os.Exit(1)
	}
}
