package frontend

import (
	"context"
	"encoding/json"
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

// TestShardExecMalformedPayloads: hostile or buggy /api/shard/exec
// bodies are the sender's fault — every one answers 4xx, none 5xx,
// none panics. (A 5xx would make a coordinator mark this worker
// unhealthy for what is a property of the request.)
func TestShardExecMalformedPayloads(t *testing.T) {
	s := testServer(t)
	count := `"sets":[{"by":["region"],"aggs":[{"func":"COUNT"}]}]`
	cases := []struct{ name, body string }{
		{"negative range", `{"table":"orders","rowLo":-5,"rowHi":10,` + count + `}`},
		{"inverted range", `{"table":"orders","rowLo":900,"rowHi":100,` + count + `}`},
		{"past-the-end range", `{"table":"orders","rowLo":0,"rowHi":99999999,` + count + `}`},
		{"unknown column", `{"table":"orders","rowLo":0,"rowHi":100,"sets":[{"by":["nope"],"aggs":[{"func":"COUNT"}]}]}`},
		{"unknown measure", `{"table":"orders","rowLo":0,"rowHi":100,"sets":[{"by":["region"],"aggs":[{"func":"SUM","column":"nope"}]}]}`},
		{"empty aggs", `{"table":"orders","rowLo":0,"rowHi":100,"sets":[{"by":["region"],"aggs":[]}]}`},
		{"no sets", `{"table":"orders","rowLo":0,"rowHi":100,"sets":[]}`},
		{"negative bin width", `{"table":"orders","rowLo":0,"rowHi":100,"sets":[{"by":["sales"],"binWidths":{"sales":-1},"aggs":[{"func":"COUNT"}]}]}`},
		{"SUM of a string", `{"table":"orders","rowLo":0,"rowHi":100,"sets":[{"by":["category"],"aggs":[{"func":"SUM","column":"region"}]}]}`},
		{"unknown aggregate", `{"table":"orders","rowLo":0,"rowHi":100,"sets":[{"by":["region"],"aggs":[{"func":"MEDIANISH"}]}]}`},
		{"unparseable predicate", `{"table":"orders","where":"region = = 3","rowLo":0,"rowHi":100,` + count + `}`},
		{"unknown table", `{"table":"nope","rowLo":0,"rowHi":100,` + count + `}`},
		{"stale content hash", `{"table":"orders","contentHash":"deadbeef","rowLo":0,"rowHi":100,` + count + `}`},
		{"truncated JSON", `{"table":"orders","rowLo":0,"rowHi":1`},
		{"wrong JSON type", `{"table":"orders","rowLo":"zero",` + count + `}`},
		{"not JSON", `SELECT 1`},
		{"empty body", ``},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postRaw(s, "/api/shard/exec", strings.NewReader(tc.body))
			if w.Code < 400 || w.Code > 499 {
				t.Fatalf("status = %d, want 4xx: %s", w.Code, w.Body.String())
			}
			var e map[string]any
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e["error"] == nil {
				t.Fatalf("error body is not typed JSON: %s", w.Body.String())
			}
		})
	}
	// The valid request the cases were derived from does answer 200.
	if w := postRaw(s, "/api/shard/exec", strings.NewReader(`{"table":"orders","rowLo":0,"rowHi":100,`+count+`}`)); w.Code != http.StatusOK {
		t.Fatalf("control request: %d: %s", w.Code, w.Body.String())
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
