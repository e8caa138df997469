package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"seedb/internal/engine"
	"seedb/internal/obs"
	"seedb/internal/stats"
)

// Worker is what the backend needs from a node that holds fragments:
// run a shard request over one of them, and the fragment lifecycle
// (list, ship, append, drop). RemoteShard implements it over HTTP,
// MemberShard in-process.
type Worker interface {
	// ID names the worker for logs, stats, and failure accounting.
	ID() string
	// ExecPartials returns partition-mergeable partials, one per
	// grouping set of the request.
	ExecPartials(ctx context.Context, req *ShardRequest) (*ShardResponse, error)
	// Health probes liveness.
	Health(ctx context.Context) error
	// TableHashes is the worker's inventory: table name -> content hash.
	TableHashes(ctx context.Context) (map[string]string, error)
	// SyncTable replaces (or creates) a fragment from a serialized
	// snapshot and reports the post-replacement state: a placement
	// whose first absolute row is lo, or, with lo < 0, a whole table.
	SyncTable(ctx context.Context, table string, lo int, snapshot []byte) (*SyncResponse, error)
	// Ingest appends a forwarded batch to one of the worker's tables.
	Ingest(ctx context.Context, req *IngestRequest) (*IngestResponse, error)
	// DropTable removes a table; an unknown name succeeds (rebalance
	// converges by re-issuing drops).
	DropTable(ctx context.Context, name string) error
}

// SyncResponse is the worker's post-replacement table state, verified
// by the same ContentHash handshake every scatter request uses.
type SyncResponse struct {
	Table       string `json:"table"`
	Rows        int    `json:"rows"`
	ContentHash string `json:"contentHash"`
}

// checkResponse verifies that resp accounts for every fragment of the
// request exactly once — refused in Failed, or inside one run of
// consecutive, row-adjacent served fragments whose bounds are theirs,
// with want partials. How the worker groups fragments into runs is its
// storage's business; that each placement is answered once is not.
func checkResponse(resp *ShardResponse, frags []ShardFragment, want int) error {
	failed := make([]bool, len(frags))
	for _, st := range resp.Failed {
		if st.Fragment < 0 || st.Fragment >= len(frags) || failed[st.Fragment] ||
			(st.Status != http.StatusNotFound && st.Status != http.StatusConflict) {
			return fmt.Errorf("malformed fragment status %+v", st)
		}
		failed[st.Fragment] = true
	}
	next := 0 // first fragment no run or status has accounted for
	for _, run := range resp.Runs {
		for next < len(frags) && failed[next] {
			next++
		}
		if len(run.Partials) != want || slices.Contains(run.Partials, nil) {
			return fmt.Errorf("returned run [%d,%d) with %d partials, want %d", run.Lo, run.Hi, len(run.Partials), want)
		}
		if next == len(frags) {
			return fmt.Errorf("returned run [%d,%d) past the last fragment", run.Lo, run.Hi)
		}
		lo, hi := frags[next].Span()
		if run.Lo != lo {
			return fmt.Errorf("returned run [%d,%d), want one starting at %d", run.Lo, run.Hi, lo)
		}
		for next++; hi < run.Hi && next < len(frags) && !failed[next]; next++ {
			if l, h := frags[next].Span(); l == hi {
				hi = h
			} else {
				break
			}
		}
		if hi != run.Hi {
			return fmt.Errorf("returned run [%d,%d), which no row-adjacent fragments from %d end", run.Lo, run.Hi, run.Lo)
		}
	}
	for ; next < len(frags); next++ {
		if !failed[next] {
			return fmt.Errorf("fragment %d neither served nor refused", next)
		}
	}
	return nil
}

// statusError types a failed worker call from the status the
// placement store chose — the one place an answer is sorted into "the
// request is at fault" (400; 413 for a body over its bound) and "the
// worker is" (the rest), so in-process and HTTP workers agree.
func statusError(status int, err error) error {
	if status == http.StatusBadRequest || status == http.StatusRequestEntityTooLarge {
		return &queryFaultError{err: err}
	}
	return err
}

// queryFaultError marks a failure deterministic in the query itself —
// an unserializable predicate, a request the worker rejected, a table
// that moved mid-scatter. No worker is at fault, so the coordinator
// neither retries nor penalizes health; the range runs on its replica.
type queryFaultError struct{ err error }

func (e *queryFaultError) Error() string { return e.err.Error() }
func (e *queryFaultError) Unwrap() error { return e.err }

// FingerprintMismatchError reports a worker whose copy of a fragment
// diverged from the coordinator's: permanent until re-shipped (or
// reloaded), so the worker is marked unhealthy rather than retried.
type FingerprintMismatchError struct {
	Shard string
	Table string
	Want  string
	Got   string
}

func (e *FingerprintMismatchError) Error() string {
	return fmt.Sprintf("cluster: shard %s table %q replica diverged (want fingerprint %s, got %s)",
		e.Shard, e.Table, e.Want, e.Got)
}

// ---------------------------------------------------------------------
// RemoteShard

// RemoteShard is a worker node reached over HTTP (the worker is an
// ordinary seedb server; see the frontend's /api/shard/* and
// /api/ingest). The zero timeout uses DefaultRemoteTimeout.
type RemoteShard struct {
	url    string // base URL, also the worker's ID
	client *http.Client
}

// DefaultRemoteTimeout bounds one exchange with a worker.
const DefaultRemoteTimeout = 30 * time.Second

// transport is shared by every RemoteShard. http.DefaultTransport keeps
// two idle connections per host, so a coordinator running more than two
// scans at once (plus ingest forwards) would dial afresh on every
// exchange; this one keeps as many per worker as a coordinator has
// pipelines in flight (the scheduler defaults to one per core).
var transport = func() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = max(64, 2*runtime.GOMAXPROCS(0))
	tr.MaxIdleConns = 0 // bounded per worker, not fleet-wide
	return tr
}()

// NewRemoteShard points a worker handle at a base URL, e.g.
// "http://worker-3:8080".
func NewRemoteShard(baseURL string, timeout time.Duration) *RemoteShard {
	if timeout <= 0 {
		timeout = DefaultRemoteTimeout
	}
	return &RemoteShard{url: baseURL, client: &http.Client{Timeout: timeout, Transport: transport}}
}

// ID implements Worker.
func (s *RemoteShard) ID() string { return s.url }

// call runs one exchange with the worker. A 200 is decoded into out
// (when non-nil, bounded by MaxWireBytes); any other status returns
// the head of the error body next to the error so callers can type it.
// The run's trace ID rides along, so the worker files its spans under
// it in its own ring.
func (s *RemoteShard) call(ctx context.Context, op, method, path, contentType string, body []byte, out any) (int, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		hreq.Header.Set("Content-Type", contentType)
	}
	if id := obs.TraceFrom(ctx).ID(); id != "" {
		hreq.Header.Set(obs.TraceHeader, id)
	}
	hres, err := s.client.Do(hreq)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: shard %s %s: %w", s.url, op, err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 4096))
		msg = bytes.TrimSpace(msg)
		return hres.StatusCode, msg, fmt.Errorf("cluster: shard %s %s: HTTP %d: %s", s.url, op, hres.StatusCode, msg)
	}
	if out != nil {
		if err := ReadWire(http.MaxBytesReader(nil, hres.Body, MaxWireBytes), out); err != nil {
			return hres.StatusCode, nil, fmt.Errorf("cluster: shard %s %s: decoding response: %w", s.url, op, err)
		}
	}
	return hres.StatusCode, nil, nil
}

// ExecPartials implements Worker over POST /api/shard/exec.
func (s *RemoteShard) ExecPartials(ctx context.Context, req *ShardRequest) (*ShardResponse, error) {
	body, _ := req.MarshalBinary() // encoding a frame cannot fail
	var resp ShardResponse
	status, _, err := s.call(ctx, "exec", http.MethodPost, "/api/shard/exec", FrameContentType, body, &resp)
	if err == nil {
		return &resp, nil
	}
	if BodyStatus(err) == http.StatusRequestEntityTooLarge {
		// The partials outgrew the wire bound: how much state a query
		// produces is the query's doing, not the worker's.
		status = http.StatusRequestEntityTooLarge
	}
	return nil, statusError(status, err)
}

// Ingest implements Worker over POST /api/ingest.
func (s *RemoteShard) Ingest(ctx context.Context, req *IngestRequest) (*IngestResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp IngestResponse
	if status, _, err := s.call(ctx, "ingest", http.MethodPost, "/api/ingest", "application/json", body, &resp); err != nil {
		return nil, statusError(status, err)
	}
	return &resp, nil
}

// TableHashes implements Worker over GET /api/shard/health, which
// reports every table's content hash.
func (s *RemoteShard) TableHashes(ctx context.Context) (map[string]string, error) {
	var body struct {
		Tables map[string]struct {
			ContentHash string `json:"contentHash"`
		} `json:"tables"`
	}
	if _, _, err := s.call(ctx, "hashes", http.MethodGet, "/api/shard/health", "", nil, &body); err != nil {
		return nil, err
	}
	hashes := make(map[string]string, len(body.Tables))
	for name, t := range body.Tables {
		hashes[name] = t.ContentHash
	}
	return hashes, nil
}

// SyncTable implements Worker over POST /api/shard/sync, which replaces
// the worker's copy wholesale and reports the post-replacement hash.
func (s *RemoteShard) SyncTable(ctx context.Context, table string, lo int, snapshot []byte) (*SyncResponse, error) {
	var resp SyncResponse
	path := "/api/shard/sync?table=" + url.QueryEscape(table)
	if lo >= 0 {
		path += "&lo=" + strconv.Itoa(lo)
	}
	if status, _, err := s.call(ctx, "sync", http.MethodPost, path, "application/octet-stream", snapshot, &resp); err != nil {
		return nil, statusError(status, err)
	}
	return &resp, nil
}

// DropTable implements Worker over POST /api/shard/drop.
func (s *RemoteShard) DropTable(ctx context.Context, name string) error {
	status, _, err := s.call(ctx, "drop", http.MethodPost, "/api/shard/drop?table="+url.QueryEscape(name), "", nil, nil)
	if err != nil {
		return statusError(status, err)
	}
	return nil
}

// Health implements Worker: GET /api/shard/health must answer 200.
func (s *RemoteShard) Health(ctx context.Context) error {
	_, _, err := s.call(ctx, "health", http.MethodGet, "/api/shard/health", "", nil, nil)
	return err
}

// ---------------------------------------------------------------------
// MemberShard

// MemberShard is an in-process worker with its OWN catalog, executor
// and placement store: it holds only what was shipped to it —
// placements under the placed layout, whole tables under the
// replicated one — so single-binary tests exercise the data movement a
// remote fleet does, including a fragment that was never shipped. Each
// Worker method is the fault gate plus one store call, the call an
// HTTP worker's handler makes. The root golden placement tests are
// built on it (the HTTP frontend would be an import cycle there).
type MemberShard struct {
	id    string
	ex    *engine.Executor
	store *PlacementStore

	// gate, when set, sees every operation's name ("exec", "ingest",
	// "sync", "drop", "hashes", "health") first; a non-nil result
	// simulates an unreachable worker. Fault tests flip it mid-run.
	gate atomic.Pointer[func(op string) error]
}

// NewMemberShard creates an empty in-process worker.
func NewMemberShard(id string) *MemberShard {
	ex := engine.NewExecutor(engine.NewCatalog())
	return &MemberShard{id: id, ex: ex, store: NewPlacementStore(ex, stats.NewCollector())}
}

// ID implements Worker.
func (m *MemberShard) ID() string { return m.id }

// Executor exposes the worker's executor, whose catalog (its whole
// tables and segment tables) tests assert on and whose stats count its
// scans.
func (m *MemberShard) Executor() *engine.Executor { return m.ex }

// Store exposes the worker's placement store, so tests can drop or
// corrupt a placement behind the coordinator's back.
func (m *MemberShard) Store() *PlacementStore { return m.store }

// SetGate installs (or, with nil, removes) the fault-injection hook.
func (m *MemberShard) SetGate(gate func(op string) error) {
	if gate == nil {
		m.gate.Store(nil)
		return
	}
	m.gate.Store(&gate)
}

func (m *MemberShard) pass(op string) error {
	if g := m.gate.Load(); g != nil {
		return (*g)(op)
	}
	return nil
}

// Health implements Worker.
func (m *MemberShard) Health(context.Context) error { return m.pass("health") }

// ExecPartials implements Worker.
func (m *MemberShard) ExecPartials(ctx context.Context, req *ShardRequest) (*ShardResponse, error) {
	if err := m.pass("exec"); err != nil {
		return nil, err
	}
	resp, status, err := m.store.Exec(ctx, req)
	if err != nil {
		return nil, statusError(status, err)
	}
	return resp, nil
}

// Ingest implements Worker.
func (m *MemberShard) Ingest(ctx context.Context, req *IngestRequest) (*IngestResponse, error) {
	if err := m.pass("ingest"); err != nil {
		return nil, err
	}
	resp, status, err := m.store.Ingest(req)
	if err != nil {
		return nil, statusError(status, err)
	}
	return resp, nil
}

// TableHashes implements Worker from the store's inventory.
func (m *MemberShard) TableHashes(ctx context.Context) (map[string]string, error) {
	if err := m.pass("hashes"); err != nil {
		return nil, err
	}
	inv, err := m.store.Inventory()
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(inv))
	for name, st := range inv {
		out[name] = st.ContentHash
	}
	return out, nil
}

// SyncTable implements Worker.
func (m *MemberShard) SyncTable(ctx context.Context, table string, lo int, snapshot []byte) (*SyncResponse, error) {
	if err := m.pass("sync"); err != nil {
		return nil, err
	}
	resp, status, err := m.store.Sync(table, lo, bytes.NewReader(snapshot))
	if err != nil {
		return nil, statusError(status, err)
	}
	return resp, nil
}

// DropTable implements Worker.
func (m *MemberShard) DropTable(ctx context.Context, name string) error {
	if err := m.pass("drop"); err != nil {
		return err
	}
	return m.store.Drop(name)
}
