package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/engine"
	"seedb/internal/frontend"
)

// TestWorkerConformance runs one lifecycle script against both worker
// hosts — an in-process MemberShard and a seedb HTTP server reached
// through RemoteShard — and holds them to the same answer at every
// step: sync a whole table and two adjacent placements, ingest into
// each (a malformed row, a placement that cannot grow and an unknown
// name included), run an exchange over each kind, drop everything.
// Every step must give the same responses (rows, hashes, the frame
// bytes of an exchange's partials) or the same error class, and the
// same inventory after it.
func TestWorkerConformance(t *testing.T) {
	ctx := context.Background()
	src := seedb.SuperstoreTable("orders", 3000, 1)
	hs := httptest.NewServer(frontend.New(seedb.Open(), nil, log.New(io.Discard, "", 0)))
	t.Cleanup(hs.Close)
	hosts := []cluster.Worker{cluster.NewMemberShard("member"), cluster.NewRemoteShard(hs.URL, 5*time.Second)}

	// outcome classes a call's result as "ok", "query fault" or
	// "worker fault", rendering a response.
	outcome := func(resp any, err error) (class, got string) {
		switch {
		case err == nil:
			return "ok", fmt.Sprintf("%+v", resp)
		case cluster.IsQueryFault(err):
			return "query fault", ""
		default:
			return "worker fault", ""
		}
	}
	inventory := func(w cluster.Worker) string {
		inv, err := w.TableHashes(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for name, h := range inv {
			out = append(out, name+"="+h)
		}
		slices.Sort(out)
		return strings.Join(out, " ")
	}
	step := func(name, want string, op func(w cluster.Worker) (any, error)) {
		t.Helper()
		var first string
		for i, w := range hosts {
			class, got := outcome(op(w))
			if class != want {
				t.Fatalf("%s on %s: %s, want %s", name, w.ID(), class, want)
			}
			got += "\ninventory: " + inventory(w)
			if i == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s: the hosts differ:\n%s: %s\n%s: %s", name, hosts[0].ID(), first, w.ID(), got)
			}
		}
	}
	ship := func(name string, lo, hi int) func(w cluster.Worker) (any, error) {
		snap := snapshotBytes(t, src, name, max(lo, 0), hi)
		return func(w cluster.Worker) (any, error) { return w.SyncTable(ctx, name, lo, snap) }
	}
	ingest := func(name string, rows [][]any) func(w cluster.Worker) (any, error) {
		return func(w cluster.Worker) (any, error) {
			return w.Ingest(ctx, &cluster.IngestRequest{Table: name, Rows: rows, Verify: true})
		}
	}
	exchange := func(frags ...cluster.ShardFragment) func(w cluster.Worker) (any, error) {
		req, err := cluster.EncodeShardRequest(exchangeQuery(), exchangeSets, "", 0, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		req.Fragments = frags
		return func(w cluster.Worker) (any, error) {
			resp, err := w.ExecPartials(ctx, req)
			if err != nil {
				return nil, err
			}
			if len(resp.Runs) == 0 || len(resp.Failed) != 0 {
				t.Fatalf("exchange on %s: %d runs, failed %+v", w.ID(), len(resp.Runs), resp.Failed)
			}
			frame, _ := resp.MarshalBinary()
			return fmt.Sprintf("%x", frame), nil
		}
	}
	drop := func(name string) func(w cluster.Worker) (any, error) {
		return func(w cluster.Worker) (any, error) { return nil, w.DropTable(ctx, name) }
	}
	malformed := [][]any{{"East", "not enough columns"}}

	step("sync whole", "ok", ship("orders", -1, 3000))
	step("sync p0", "ok", ship("orders__p0", 0, 1024))
	step("sync p1", "ok", ship("orders__p1", 1024, 2048))
	step("ingest whole", "ok", ingest("orders", ingestRows(2)))
	step("ingest p1", "ok", ingest("orders__p1", ingestRows(2)))
	step("ingest whole malformed", "query fault", ingest("orders", malformed))
	step("ingest p1 malformed", "query fault", ingest("orders__p1", malformed))
	step("ingest p0, followed by p1", "worker fault", ingest("orders__p0", ingestRows(1)))
	step("ingest unknown", "worker fault", ingest("nope", ingestRows(1)))
	step("exchange whole", "ok", exchange(cluster.ShardFragment{Table: "orders", RowLo: 0, RowHi: 3002}))
	step("exchange placements", "ok", exchange(
		cluster.ShardFragment{Table: "orders__p0", RowLo: 0, RowHi: 1024},
		cluster.ShardFragment{Table: "orders__p1", SampleBase: 1024, RowLo: 0, RowHi: 1026}))
	step("drop whole", "ok", drop("orders"))
	step("drop p0", "ok", drop("orders__p0"))
	step("drop p1", "ok", drop("orders__p1"))
	step("drop unknown", "ok", drop("nope"))
	for _, w := range hosts {
		if inv := inventory(w); inv != "" {
			t.Fatalf("%s still holds %s", w.ID(), inv)
		}
	}
}

// snapshotBytes serializes src (when name is its own) or its rows
// [lo,hi) as the placement name, as a coordinator ships them.
func snapshotBytes(t *testing.T, src *engine.Table, name string, lo, hi int) []byte {
	t.Helper()
	frag := src
	if name != src.Name() {
		var err error
		if frag, err = src.ExtractRange(name, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := engine.WriteTableSnapshot(&buf, frag); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreMixedConcurrency: on one worker, a whole table's ingest and
// verify hash (outside the store's lock) run beside exchanges over it,
// placement ships and drops, and inventories (run with -race).
func TestStoreMixedConcurrency(t *testing.T) {
	ctx := context.Background()
	src := seedb.SuperstoreTable("orders", 2048, 1)
	m := cluster.NewMemberShard("m")
	whole, p0 := snapshotBytes(t, src, "orders", 0, 0), snapshotBytes(t, src, "orders__p0", 0, 1024)
	if _, err := m.SyncTable(ctx, "orders", -1, whole); err != nil {
		t.Fatal(err)
	}
	req, err := cluster.EncodeShardRequest(exchangeQuery(), exchangeSets, "", 0, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	var wg sync.WaitGroup
	for _, op := range []func() error{
		func() error {
			_, err := m.Ingest(ctx, &cluster.IngestRequest{Table: "orders", Rows: ingestRows(2), Verify: true})
			return err
		},
		func() error {
			resp, err := m.ExecPartials(ctx, req)
			if err == nil && len(resp.Runs) != 1 {
				err = fmt.Errorf("exchange answered %d runs, failed %+v", len(resp.Runs), resp.Failed)
			}
			return err
		},
		func() error {
			if _, err := m.SyncTable(ctx, "orders__p0", 0, p0); err != nil {
				return err
			}
			return m.DropTable(ctx, "orders__p0")
		},
		func() error { _, err := m.TableHashes(ctx); return err },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range n {
				if err := op(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	inv, err := m.TableHashes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Executor().Catalog().Table("orders"); got.NumRows() != 2048+2*n || len(inv) != 1 {
		t.Fatalf("after the run: %d rows of orders, inventory %v", got.NumRows(), inv)
	}
}
