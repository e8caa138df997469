package frontend

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"seedb"
)

// BenchmarkRecommendRepeat is POST /api/recommend answered from the
// exec cache — a repeat of an answered request, so no scan runs — on a
// 100k-row Superstore table with the shipped ServeConfig defaults.
// handler is the whole request; session, response and encode split it
// into the service call (scheduler, cache lookup, view derivation,
// scoring), building the wire shape (one SVG chart per view) and the
// JSON encoding. Run it with -benchtime 1x for a smoke test.
func BenchmarkRecommendRepeat(b *testing.B) {
	db := seedb.Open()
	if err := db.RegisterTable(seedb.SuperstoreTable("orders", 100_000, 1)); err != nil {
		b.Fatal(err)
	}
	srv := NewWithConfig(db, seedb.ServeConfig{}, nil, log.New(io.Discard, "", 0))
	const sqlText = "SELECT * FROM orders WHERE category = 'Furniture'"
	body, err := json.Marshal(recommendRequest{SQL: sqlText})
	if err != nil {
		b.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/api/recommend", bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w
	}
	// The first request scans and fills the exec cache.
	if w := post(); w.Code != http.StatusOK {
		b.Fatalf("first request: HTTP %d: %s", w.Code, w.Body)
	}
	var resp recommendResponse
	if err := json.Unmarshal(post().Body.Bytes(), &resp); err != nil {
		b.Fatal(err)
	}
	if resp.QueriesIssued != 0 || len(resp.Views) == 0 {
		b.Fatalf("repeat issued %d queries for %d views, want 0 queries (an exec-cache hit)", resp.QueriesIssued, len(resp.Views))
	}

	b.Run("handler", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if w := post(); w.Code != http.StatusOK {
				b.Fatalf("HTTP %d", w.Code)
			}
		}
	})
	sess, err := srv.session("")
	if err != nil {
		b.Fatal(err)
	}
	opts := srv.optionsFrom(recommendRequest{SQL: sqlText}, sess.Options())
	res, err := sess.RecommendSQL(context.Background(), sqlText, &opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("session", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := opts
			if _, err := sess.RecommendSQL(context.Background(), sqlText, &o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srv.recommendResponseFrom(res, false)
		}
	})
	wire := srv.recommendResponseFrom(res, false)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.NewEncoder(io.Discard).Encode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
}
