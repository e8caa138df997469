package frontend

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
)

func postRaw(s *Server, path string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// shardBody is an /api/shard/exec body: a fragment list beside the
// rest of the request (sets, where).
func shardBody(rest string, frags ...string) string {
	return `{"fragments":[` + strings.Join(frags, ",") + `],` + rest + `}`
}

// shardFrag is one fragment of a body; hash may be empty.
func shardFrag(table string, lo, hi, sampleBase int, hash string) string {
	return fmt.Sprintf(`{"table":%q,"contentHash":%q,"sampleBase":%d,"rowLo":%d,"rowHi":%d}`, table, hash, sampleBase, lo, hi)
}

// TestShardExecMalformedPayloads: hostile or buggy /api/shard/exec
// bodies are the sender's fault — every one answers 4xx, none 5xx,
// none panics. (A 5xx would make a coordinator mark this worker
// unhealthy for what is a property of the request.) A fragment this
// node cannot serve is not a malformed request: it is reported inside a
// 200 and the rest of the exchange is served.
func TestShardExecMalformedPayloads(t *testing.T) {
	s := testServer(t)
	count := `"sets":[{"by":["region"],"aggs":[{"func":"COUNT"}]}]`
	orders := func(lo, hi int) string { return shardFrag("orders", lo, hi, 0, "") }
	var tooMany []string
	for i := 0; i <= cluster.MaxExchangeFragments; i++ {
		tooMany = append(tooMany, shardFrag("orders", 0, 1, i, "")) // in order, disjoint: only the bound is wrong
	}
	cases := []struct{ name, body string }{
		{"negative range", shardBody(count, orders(-5, 10))},
		{"inverted range", shardBody(count, orders(900, 100))},
		{"empty range", shardBody(count, orders(100, 100))},
		{"past-the-end range", shardBody(count, orders(0, 99999999))},
		{"unknown column", shardBody(`"sets":[{"by":["nope"],"aggs":[{"func":"COUNT"}]}]`, orders(0, 100))},
		{"unknown measure", shardBody(`"sets":[{"by":["region"],"aggs":[{"func":"SUM","column":"nope"}]}]`, orders(0, 100))},
		{"empty aggs", shardBody(`"sets":[{"by":["region"],"aggs":[]}]`, orders(0, 100))},
		{"no sets", shardBody(`"sets":[]`, orders(0, 100))},
		{"negative bin width", shardBody(`"sets":[{"by":["sales"],"binWidths":{"sales":-1},"aggs":[{"func":"COUNT"}]}]`, orders(0, 100))},
		{"SUM of a string", shardBody(`"sets":[{"by":["category"],"aggs":[{"func":"SUM","column":"region"}]}]`, orders(0, 100))},
		{"unknown aggregate", shardBody(`"sets":[{"by":["region"],"aggs":[{"func":"MEDIANISH"}]}]`, orders(0, 100))},
		{"unparseable predicate", shardBody(`"where":"region = = 3",`+count, orders(0, 100))},
		{"empty fragment list", shardBody(count)},
		{"no fragment list", `{` + count + `}`},
		{"pre-exchange shape", `{"table":"orders","rowLo":0,"rowHi":100,` + count + `}`},
		{"duplicate fragment", shardBody(count, orders(0, 100), orders(0, 100))},
		{"fragments out of row order", shardBody(count, orders(1024, 2000), orders(0, 1024))},
		{"overlapping fragments", shardBody(count, orders(0, 1024), orders(1000, 2000))},
		{"fragment list over the bound", shardBody(count, tooMany...)},
		{"truncated JSON", `{"fragments":[{"table":"orders","rowLo":0,"rowHi":1`},
		{"wrong JSON type", shardBody(count, `{"table":"orders","rowLo":"zero"}`)},
		{"not JSON", `SELECT 1`},
		{"empty body", ``},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, scansBefore, _ := s.db.Engine().Executor().Stats().Snapshot()
			w := postRaw(s, "/api/shard/exec", strings.NewReader(tc.body))
			if w.Code < 400 || w.Code > 499 {
				t.Fatalf("status = %d, want 4xx: %.300s", w.Code, w.Body.String())
			}
			var e map[string]any
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e["error"] == nil {
				t.Fatalf("error body is not typed JSON: %s", w.Body.String())
			}
			if _, scans, _ := s.db.Engine().Executor().Stats().Snapshot(); scans != scansBefore {
				t.Fatalf("a refused request scanned (%d -> %d table scans)", scansBefore, scans)
			}
		})
	}

	exec := func(t *testing.T, body string) cluster.ShardResponse {
		t.Helper()
		w := postRaw(s, "/api/shard/exec", strings.NewReader(body))
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, want 200: %s", w.Code, w.Body.String())
		}
		var resp cluster.ShardResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// The valid request the cases were derived from does answer 200,
	// and two adjacent fragments come back as one run.
	if resp := exec(t, shardBody(count, orders(0, 100))); len(resp.Runs) != 1 || len(resp.Failed) != 0 {
		t.Fatalf("control request: %+v", resp)
	}
	if resp := exec(t, shardBody(count, orders(0, 1024), orders(1024, 2000))); len(resp.Runs) != 1 ||
		resp.Runs[0].Lo != 0 || resp.Runs[0].Hi != 2000 || len(resp.Runs[0].Partials) != 1 {
		t.Fatalf("adjacent fragments were not pre-merged into one run: %+v", resp)
	}

	tb, err := s.db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := tb.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, bad string
		status    int
	}{
		{"unknown fragment among good ones", shardFrag("nope", 0, 100, 1024, ""), http.StatusNotFound},
		{"stale hash among good ones", shardFrag("orders", 0, 100, 1024, "deadbeef"), http.StatusConflict},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Positions: orders rows [0,1024), the bad fragment at
			// [1024,1124), orders rows [1124,2000) — so the good ones
			// are NOT adjacent and stay two runs.
			resp := exec(t, shardBody(count, shardFrag("orders", 0, 1024, 0, hash), tc.bad, shardFrag("orders", 1124, 2000, 0, hash)))
			if len(resp.Failed) != 1 || resp.Failed[0].Fragment != 1 || resp.Failed[0].Status != tc.status || resp.Failed[0].Error == "" {
				t.Fatalf("want fragment 1 reported %d: %+v", tc.status, resp.Failed)
			}
			if got := resp.Failed[0].ContentHash; (tc.status == http.StatusConflict) != (got == hash) {
				t.Fatalf("a 409 (and only a 409) carries the worker's own hash, got %q", got)
			}
			if len(resp.Runs) != 2 || resp.Runs[0].Lo != 0 || resp.Runs[0].Hi != 1024 || resp.Runs[1].Lo != 1124 || resp.Runs[1].Hi != 2000 {
				t.Fatalf("the good fragments must be served as two runs: %+v", resp.Runs)
			}
		})
	}
	// Nothing servable is still an answer, not an error.
	if resp := exec(t, shardBody(count, shardFrag("nope", 0, 100, 0, ""))); len(resp.Runs) != 0 || len(resp.Failed) != 1 || resp.Failed[0].Status != http.StatusNotFound {
		t.Fatalf("unknown fragment alone: %+v", resp)
	}
}

// endlessJSON is a syntactically promising body that never ends: a
// string value of n filler bytes.
func endlessJSON(n int64) io.Reader {
	return io.MultiReader(strings.NewReader(`{"table":"`), io.LimitReader(zeros{}, n), strings.NewReader(`"}`))
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

// TestClusterBodiesAreBounded: /api/shard/exec and /api/ingest refuse a
// body over cluster.MaxWireBytes with 413 instead of buffering it.
func TestClusterBodiesAreBounded(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{"/api/shard/exec", "/api/ingest"} {
		w := postRaw(s, path, endlessJSON(cluster.MaxWireBytes))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413: %.200s", path, w.Code, w.Body.String())
		}
	}
}

// TestOversizedExchangeDoesNotPenaliseWorker: a shard response over
// the wire bound, and a worker's 413 for an oversized request, are
// both properties of the query: the range runs on the coordinator and
// the worker stays healthy.
func TestOversizedExchangeDoesNotPenaliseWorker(t *testing.T) {
	ctx := context.Background()
	for name, handler := range map[string]http.HandlerFunc{
		"oversized response": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.Copy(w, endlessJSON(cluster.MaxWireBytes))
		},
		"413": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"too large"}`, http.StatusRequestEntityTooLarge)
		},
	} {
		t.Run(name, func(t *testing.T) {
			inner := testServer(t)
			worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/shard/exec" {
					handler(w, r)
					return
				}
				inner.ServeHTTP(w, r)
			}))
			t.Cleanup(worker.Close)

			coord := testServer(t)
			b := coord.db.ShardRemote([]string{worker.URL}, time.Minute, seedb.ClusterConfig{Cooldown: time.Hour})
			w := postJSON(t, coord, "/api/recommend", recommendRequest{SQL: "SELECT * FROM orders WHERE category = 'Furniture'"})
			if w.Code != http.StatusOK {
				t.Fatalf("recommend: %d: %s", w.Code, w.Body.String())
			}
			c := b.Counters()
			if c.ShardCalls == 0 || c.Retries != 0 || c.Failovers == 0 {
				t.Fatalf("want unretried attempts that ran locally: %+v", c)
			}
			for _, st := range b.HealthCheck(ctx) {
				if !st.Healthy || st.Failures != 0 {
					t.Fatalf("worker penalised for an oversized exchange: %+v", st)
				}
			}
		})
	}
}
