package frontend

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/engine"
)

// superstoreIngestRows builds n valid loose-typed rows for the orders
// table (see datagen.SuperstoreSchema).
func superstoreIngestRows(n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{
			"West", "California", "Consumer", "Furniture", "Chairs",
			"Standard", "04-Apr", 100.5 + float64(i), 12.25, float64(1 + i%5), 0.15,
		}
	}
	return rows
}

func TestIngestEndpoint(t *testing.T) {
	s := testServer(t)
	before, err := s.db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	rowsBefore := before.NumRows()

	w := postJSON(t, s, "/api/ingest", map[string]any{"table": "orders", "rows": superstoreIngestRows(7)})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp cluster.IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Appended != 7 || resp.Rows != rowsBefore+7 {
		t.Fatalf("ingest response %+v, want appended=7 rows=%d", resp, rowsBefore+7)
	}
	if resp.ContentHash != "" {
		t.Fatal("plain ingest must not pay for an O(table) content hash")
	}

	// Verification is opt-in: the same request with verify=true pays
	// for and returns the post-append hash.
	wv := postJSON(t, s, "/api/ingest", map[string]any{"table": "orders", "rows": superstoreIngestRows(1), "verify": true})
	if wv.Code != http.StatusOK {
		t.Fatalf("verify ingest: %d: %s", wv.Code, wv.Body.String())
	}
	var vresp cluster.IngestResponse
	if err := json.Unmarshal(wv.Body.Bytes(), &vresp); err != nil {
		t.Fatal(err)
	}
	if vresp.ContentHash == "" {
		t.Fatal("verify=true ingest must return the content hash")
	}
	if got := before.NumRows(); got != rowsBefore+8 {
		t.Fatalf("table has %d rows after both ingests, want %d", got, rowsBefore+8)
	}

	// A recommendation over the grown table works and sees the new rows.
	w2 := postJSON(t, s, "/api/recommend", recommendRequest{SQL: "SELECT * FROM orders WHERE category = 'Furniture'"})
	if w2.Code != http.StatusOK {
		t.Fatalf("recommend after ingest: %d: %s", w2.Code, w2.Body.String())
	}

	// Delta/reuse counters are surfaced in /api/stats.
	sw := httptest.NewRecorder()
	s.ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	if sw.Code != http.StatusOK {
		t.Fatalf("stats: %d", sw.Code)
	}
	var stats statsResponse
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Incremental == nil {
		t.Fatal("stats missing incremental section (store should be on under Serve)")
	}
	if stats.Incremental.Store.RowsScanned == 0 {
		t.Fatalf("expected scanned rows recorded, got %+v", stats.Incremental.Store)
	}
}

func TestIngestValidation(t *testing.T) {
	s := testServer(t)
	before, _ := s.db.Table("orders")
	rowsBefore := before.NumRows()

	cases := []struct {
		name string
		body any
		code int
	}{
		{"missing table", map[string]any{"rows": superstoreIngestRows(1)}, http.StatusBadRequest},
		{"no rows", map[string]any{"table": "orders", "rows": [][]any{}}, http.StatusBadRequest},
		{"unknown table", map[string]any{"table": "nope", "rows": superstoreIngestRows(1)}, http.StatusNotFound},
		{"short row", map[string]any{"table": "orders", "rows": [][]any{{"West"}}}, http.StatusBadRequest},
		{"bad type", map[string]any{"table": "orders", "rows": [][]any{
			{"West", "California", "Consumer", "Furniture", "Chairs", "Standard", "04-Apr", "not-a-number", 1.0, 2.0, 0.1},
		}}, http.StatusBadRequest},
		{"fractional int", map[string]any{"table": "orders", "rows": [][]any{
			{"West", "California", "Consumer", "Furniture", "Chairs", "Standard", "04-Apr", 10.0, 1.0, 2.5, 0.1},
		}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := postJSON(t, s, "/api/ingest", tc.body)
		if w.Code != tc.code {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, w.Code, tc.code, w.Body.String())
		}
	}
	if got := before.NumRows(); got != rowsBefore {
		t.Fatalf("failed ingests must not change the table: %d rows, want %d", got, rowsBefore)
	}
}

// TestIngestQueryConsistency: after ingest through the HTTP API, a
// recommendation is byte-identical to one computed over a cold replica
// holding the same rows — the end-to-end statement of the incremental
// path's correctness.
func TestIngestQueryConsistency(t *testing.T) {
	mkDB := func() *seedb.DB {
		db := seedb.Open()
		if err := db.RegisterTable(seedb.SuperstoreTable("orders", 2000, 1)); err != nil {
			t.Fatal(err)
		}
		return db
	}
	live := mkDB()
	liveSrv := New(live, nil, nil)

	// Prime the caches, then grow the table through the API.
	req := recommendRequest{SQL: "SELECT * FROM orders WHERE category = 'Furniture'"}
	if w := postJSON(t, liveSrv, "/api/recommend", req); w.Code != http.StatusOK {
		t.Fatalf("prime: %d", w.Code)
	}
	rows := superstoreIngestRows(1500)
	if w := postJSON(t, liveSrv, "/api/ingest", map[string]any{"table": "orders", "rows": rows}); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", w.Code, w.Body.String())
	}
	w := postJSON(t, liveSrv, "/api/recommend", req)
	if w.Code != http.StatusOK {
		t.Fatalf("recommend after ingest: %d", w.Code)
	}

	// Cold replica: same base + same appended rows, no caches primed,
	// no incremental store.
	cold := mkDB()
	coldT, _ := cold.Table("orders")
	typed, err := coldT.ParseRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coldT.Append(typed); err != nil {
		t.Fatal(err)
	}
	coldSrv := New(cold, nil, nil)
	w2 := postJSON(t, coldSrv, "/api/recommend", req)
	if w2.Code != http.StatusOK {
		t.Fatalf("cold recommend: %d", w2.Code)
	}

	var a, b recommendResponse
	if err := json.Unmarshal(w.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if len(a.Views) == 0 || len(a.Views) != len(b.Views) {
		t.Fatalf("view counts differ: %d vs %d", len(a.Views), len(b.Views))
	}
	for i := range a.Views {
		if a.Views[i].Title != b.Views[i].Title || a.Views[i].Utility != b.Views[i].Utility {
			t.Fatalf("view %d differs after ingest: %+v vs %+v", i, a.Views[i], b.Views[i])
		}
	}
}

// failingSink is a write-ahead log whose every write fails.
type failingSink struct{}

func (failingSink) LogAppend(*engine.Table, uint64, [][]engine.Value) error {
	return errors.New("injected: fsync failed")
}

// TestIngestNotDurableIs500 pins docs/API.md's ack semantics: a batch
// applied in memory but not logged answers 500 — never 200, never the
// client's 400 — on a plain node's own table and on a whole table a
// coordinator shipped to a worker, while a bad batch stays 400.
func TestIngestNotDurableIs500(t *testing.T) {
	s := testServer(t)
	orders, err := s.db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := engine.WriteTableSnapshot(&snap, orders.Clone("shipped")); err != nil {
		t.Fatal(err)
	}
	if w := postRaw(s, "/api/shard/sync?table=shipped", "application/octet-stream", &snap); w.Code != http.StatusOK {
		t.Fatalf("sync: %d: %s", w.Code, w.Body.String())
	}
	s.db.Engine().Executor().Catalog().SetAppendSink(failingSink{})
	for _, table := range []string{"orders", "shipped"} {
		if w := postJSON(t, s, "/api/ingest", map[string]any{"table": table, "rows": superstoreIngestRows(2)}); w.Code != http.StatusInternalServerError {
			t.Errorf("%s: unlogged batch: status %d, want 500 (%s)", table, w.Code, w.Body.String())
		}
		if w := postJSON(t, s, "/api/ingest", map[string]any{"table": table, "rows": [][]any{{"West"}}}); w.Code != http.StatusBadRequest {
			t.Errorf("%s: bad batch: status %d, want 400", table, w.Code)
		}
	}
}
