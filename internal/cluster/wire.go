// Package cluster is SeeDB's distributed execution layer: one
// core.Backend that decides WHERE the row ranges of the engine's shared
// scan run and merges their partition-mergeable partials back into
// results byte-identical to a single-node scan.
//
// One backend, two layouts. Mechanism exists once, in Backend: worker
// health (fail, cool down, half-open), the scatter (cut the window into
// tasks, assign each to one live owner that holds it, send every worker
// its tasks in ONE exchange, re-cut only what failed onto the next
// owners, sort failures into query faults and worker faults, fail over
// to the coordinator's own replica, fold the runs in row order), ingest
// (append through the durability seam, then per touched fragment per
// owner forward the delta or ship whole, verifying the hash), rebalance
// (ship what an owner lacks, drop what a worker no longer owns) and the
// status/metrics surface. Policy lives behind the unexported layout
// interface, which answers only: which fragments cover these rows, who
// owns each, and how is a query's window cut into tasks.
//
//   - replicated (Config.Replication == 0): every worker holds every
//     table whole, under its own name; the WORK is partitioned — one
//     grid-aligned range per worker per query. With no workers the
//     query runs unscattered on the coordinator's executor.
//   - placed (Config.Replication >= 1): the DATA is partitioned. A
//     table is cut into placements of PlacementChunks grid cells, a
//     consistent-hash ring assigns each to Replication workers, and a
//     worker keeps the placements it owns as segments — one table per
//     maximal run of adjacent placements (PlacementStore) — so no
//     worker needs RAM for the whole table and a worker's share of a
//     scan is one scan per segment. One task per placement; a worker's
//     tasks travel together.
//
// A fragment is (name on the worker, source rows [lo,hi), content
// hash): a whole table is the fragment with lo = 0 under its own name,
// a placement the fragment FragmentName(table, i). An exchange carries
// the query once and, per fragment, (name, hash, rows rebased by lo,
// SampleBase + lo), so each scan is positionally indistinguishable from
// the same rows of a whole-table scan: fragments and segments start on
// the engine's absolute 1024-row grid, partials carry no positions and
// merge exactly, and sampling is re-anchored. The worker verifies every
// fragment's hash on its own and scans each run of row-adjacent
// fragments inside one of its tables once, into one partial per
// grouping set — a partial's size is set by the groups, not the rows,
// so this is what keeps a placed scan from shipping the whole result
// once per placement. Workers are plain seedb servers (/api/shard/*,
// /api/ingest) or in-process MemberShards, both over a PlacementStore;
// the coordinator keeps the authoritative full replica — ingest entry
// point and degraded path. Over HTTP an exchange is one binary frame
// each way.
package cluster

import (
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"seedb/internal/engine"
)

// Body bounds of the cluster protocol: a body over its bound is refused
// with a typed error (*http.MaxBytesError, HTTP 413), not buffered.
const (
	// MaxSnapshotBytes bounds one /api/shard/sync upload (a serialized
	// table or fragment); far above any demo dataset, yet finite.
	MaxSnapshotBytes = 1 << 30
	// MaxWireBytes bounds every other body: /api/shard/exec frames both
	// ways, /api/ingest batches, and the JSON answers RemoteShard decodes.
	MaxWireBytes = 64 << 20
)

// BodyStatus is the status a body that failed to read or decode
// answers: 413 when it ran past its bound, 400 otherwise.
func BodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// An exchange is one frame each way (engine.EncodeFrame) under magic,
// version and 'Q' or 'R'; another build's version is refused with 400.
const FrameContentType, frameHeader = "application/x-seedb-frame", "SDBX\x02"

// frameError types a refused frame.
func frameError(err error) error {
	if err != nil {
		return fmt.Errorf("cluster: not a well-formed %s frame of this build (coordinator and workers must run the same build): %w", FrameContentType, err)
	}
	return nil
}

// ReadWire decodes one cluster-protocol body: a frame into an
// encoding.BinaryUnmarshaler (ShardRequest, ShardResponse), else JSON.
func ReadWire(r io.Reader, into any) error {
	if bu, ok := into.(encoding.BinaryUnmarshaler); ok {
		data, err := io.ReadAll(r)
		if err == nil {
			err = bu.UnmarshalBinary(data)
		}
		return err
	}
	return json.NewDecoder(r).Decode(into)
}

// ShardRequest is the wire form of one exchange: the engine query's
// predicate, sampling and grouping sets once, plus every fragment this
// worker is to scan for it. Predicates travel as engine predicate trees
// (engine.FrameCodec), literals bit for bit, so a worker evaluates
// exactly what the coordinator would.
type ShardRequest struct {
	// Preds are the exchange's distinct predicates (by identity); Where
	// and each ShardAgg.Filter name one by its index plus one, 0 for
	// none. An aggregate filter shared by identity on the coordinator
	// stays shared on the worker, so the engine evaluates it once per
	// row there too.
	Preds          []engine.Predicate `json:"preds,omitempty"`
	Where          int                `json:"where,omitempty"`
	SampleFraction float64            `json:"sampleFraction,omitempty"`
	SampleSeed     uint64             `json:"sampleSeed,omitempty"`
	// Parallelism is the budget for the whole exchange; the worker
	// spreads it across the fragments.
	Parallelism int                `json:"parallelism,omitempty"`
	Sets        []ShardGroupingSet `json:"sets"`
	// Fragments lists the scans in ascending row order, disjoint, at
	// most MaxExchangeFragments of them.
	Fragments []ShardFragment `json:"fragments"`
}

// MarshalBinary encodes the request as a frame.
func (r *ShardRequest) MarshalBinary() ([]byte, error) {
	return engine.EncodeFrame(frameHeader+"Q", r.frame), nil
}

// UnmarshalBinary decodes a request frame (≤ MaxExchangeFragments).
func (r *ShardRequest) UnmarshalBinary(data []byte) error {
	*r = ShardRequest{}
	return frameError(engine.DecodeFrame(data, frameHeader+"Q", r.frame))
}

// frame walks the request's frame form (engine.FrameCodec).
func (r *ShardRequest) frame(c engine.FrameCodec) {
	engine.FrameList(c, &r.Preds, 1, MaxWireBytes)
	for i := range r.Preds {
		c.Predicate(&r.Preds[i])
	}
	c.Int(&r.Where)
	c.Float(&r.SampleFraction)
	c.Uint(&r.SampleSeed)
	c.Int(&r.Parallelism)
	engine.FrameList(c, &r.Sets, 3, MaxWireBytes)
	for i := range r.Sets {
		gs := &r.Sets[i]
		c.Strs(&gs.By)
		c.FloatMap(&gs.BinWidths)
		engine.FrameList(c, &gs.Aggs, 4, MaxWireBytes)
		for j := range gs.Aggs {
			a := &gs.Aggs[j]
			c.Str(&a.Func)
			c.Str(&a.Column)
			c.Str(&a.Alias)
			c.Int(&a.Filter)
		}
	}
	engine.FrameList(c, &r.Fragments, 5, MaxExchangeFragments)
	for i := range r.Fragments {
		f := &r.Fragments[i]
		c.Str(&f.Table)
		c.Str(&f.ContentHash)
		c.Int(&f.SampleBase)
		c.Int(&f.RowLo)
		c.Int(&f.RowHi)
	}
}

// ShardFragment is one scan of an exchange: rows [RowLo,RowHi) of a
// worker-side table.
type ShardFragment struct {
	Table string `json:"table"`
	// ContentHash pins the rows the coordinator planned against
	// (engine.Table.RangeContentHash — equal rows hash equal across
	// processes); a worker whose copy differs refuses the fragment
	// (status 409 in ShardResponse.Failed).
	ContentHash string `json:"contentHash,omitempty"`
	// SampleBase is the absolute row index the table's row 0 maps to
	// (engine.Query.SampleBase advanced by the fragment's lo), so
	// sampled scans pick exactly the rows a single-node scan would.
	SampleBase int `json:"sampleBase,omitempty"`
	RowLo      int `json:"rowLo"`
	RowHi      int `json:"rowHi"`
}

// Span is where the scan sits in the query's absolute row order.
func (f ShardFragment) Span() (lo, hi int) { return f.SampleBase + f.RowLo, f.SampleBase + f.RowHi }

// MaxExchangeFragments bounds one request's fragment list; a longer one
// is refused (400) before anything is scanned.
const MaxExchangeFragments = 1 << 16

// ShardGroupingSet mirrors engine.GroupingSet on the wire.
type ShardGroupingSet struct {
	By        []string           `json:"by,omitempty"`
	BinWidths map[string]float64 `json:"binWidths,omitempty"`
	Aggs      []ShardAgg         `json:"aggs"`
}

// ShardAgg mirrors engine.AggSpec; Filter names the aggregate's filter
// in ShardRequest.Preds like ShardRequest.Where.
type ShardAgg struct {
	Func   string `json:"func"`
	Column string `json:"column,omitempty"`
	Alias  string `json:"alias,omitempty"`
	Filter int    `json:"filter,omitempty"`
}

// ShardResponse is a worker's answer to one exchange: the fragments it
// served, pre-merged, and the ones it could not.
type ShardResponse struct {
	Runs   []ShardRun            `json:"runs"`
	Failed []ShardFragmentStatus `json:"failed,omitempty"`
}

// ShardRun is one maximal run of served, row-adjacent fragments folded
// in row order into one partial per grouping set. [Lo,Hi) are absolute
// positions (SampleBase + row).
type ShardRun struct {
	Lo       int               `json:"lo"`
	Hi       int               `json:"hi"`
	Partials []*engine.Partial `json:"partials"`
}

// MarshalBinary encodes the response as a frame, partials bit for bit.
func (r *ShardResponse) MarshalBinary() ([]byte, error) {
	return engine.EncodeFrame(frameHeader+"R", r.frame), nil
}

// UnmarshalBinary decodes a response frame; checkResponse vets it.
func (r *ShardResponse) UnmarshalBinary(data []byte) error {
	*r = ShardResponse{}
	return frameError(engine.DecodeFrame(data, frameHeader+"R", r.frame))
}

// frame walks the response's frame form (engine.FrameCodec).
func (r *ShardResponse) frame(c engine.FrameCodec) {
	engine.FrameList(c, &r.Runs, 3, MaxWireBytes)
	for i := range r.Runs {
		run := &r.Runs[i]
		c.Int(&run.Lo)
		c.Int(&run.Hi)
		engine.FrameList(c, &run.Partials, 6, MaxWireBytes)
		for j := range run.Partials {
			c.Partial(&run.Partials[j])
		}
	}
	engine.FrameList(c, &r.Failed, 4, MaxWireBytes)
	for i := range r.Failed {
		f := &r.Failed[i]
		c.Int(&f.Fragment)
		c.Int(&f.Status)
		c.Str(&f.ContentHash)
		c.Str(&f.Error)
	}
}

// ShardFragmentStatus reports a fragment the worker could not serve:
// 404 (it holds no such table) or 409 (its copy differs; ContentHash is
// the worker's own). The rest of the exchange is unaffected.
type ShardFragmentStatus struct {
	Fragment    int    `json:"fragment"` // index into ShardRequest.Fragments
	Status      int    `json:"status"`
	ContentHash string `json:"contentHash,omitempty"`
	Error       string `json:"error"`
}

// IngestRequest is the wire form of a batched append: loosely-typed
// rows (JSON numbers/strings/nulls) that every node coerces against
// its own replica's schema. The coercion is deterministic, so a
// coordinator and its workers derive identical columns — verified
// after the fact by comparing post-append content hashes.
type IngestRequest struct {
	Table string  `json:"table"`
	Rows  [][]any `json:"rows"`
	// Verify asks the node to compute and return its post-append
	// ContentHash, which digests the cells the append sealed and the
	// tail. Coordinators always set it when forwarding (replica
	// re-verification is the point); a plain client streaming batches
	// into a single node can skip it and pay no hash.
	Verify bool `json:"verify,omitempty"`
}

// IngestResponse reports a node's table state after applying an
// append.
type IngestResponse struct {
	Table string `json:"table"`
	// Appended is how many rows this request added; Rows is the
	// table's new total.
	Appended int `json:"appended"`
	Rows     int `json:"rows"`
	// ContentHash is the post-append table's (schema and rows), so the
	// coordinator can verify the replica still carries the same rows.
	// Empty unless the request set Verify; a coordinator always sets it.
	ContentHash string `json:"contentHash,omitempty"`
	// Shards is a coordinator's: one status per (owner, fragment)
	// the batch touched.
	Shards []ShardIngestStatus `json:"shards,omitempty"`
}

// EncodeShardRequest lowers (q, gsets) restricted to rows [lo,hi) of
// q.Table into the wire form, as an exchange of one fragment. It fails
// when a predicate has no frame form (engine.CheckFramePredicate) —
// callers treat that as "this query cannot be distributed" and run the
// range locally instead.
func EncodeShardRequest(q *engine.Query, gsets []engine.GroupingSet, contentHash string, lo, hi, parallelism int) (*ShardRequest, error) {
	req := &ShardRequest{
		SampleFraction: q.SampleFraction,
		SampleSeed:     q.SampleSeed,
		Parallelism:    parallelism,
		Fragments: []ShardFragment{{Table: q.Table, ContentHash: contentHash,
			SampleBase: q.SampleBase, RowLo: lo, RowHi: hi}},
	}
	index := map[engine.Predicate]int{}
	ref := func(p engine.Predicate) (int, error) {
		if p == nil {
			return 0, nil
		}
		// Vetted before it keys the map: a caller's own predicate type
		// need not be comparable.
		if err := engine.CheckFramePredicate(p); err != nil {
			return 0, err
		}
		if i, ok := index[p]; ok {
			return i, nil
		}
		req.Preds = append(req.Preds, p)
		index[p] = len(req.Preds)
		return len(req.Preds), nil
	}
	var err error
	if req.Where, err = ref(q.Where); err != nil {
		return nil, err
	}
	if gsets == nil {
		gsets = []engine.GroupingSet{{By: q.GroupBy, Aggs: q.Aggs, BinWidths: q.BinWidths}}
	}
	for _, gs := range gsets {
		wgs := ShardGroupingSet{By: gs.By, BinWidths: gs.BinWidths}
		for _, a := range gs.Aggs {
			wa := ShardAgg{Func: a.Func.String(), Column: a.Column, Alias: a.Alias}
			if wa.Filter, err = ref(a.Filter); err != nil {
				return nil, err
			}
			wgs.Aggs = append(wgs.Aggs, wa)
		}
		req.Sets = append(req.Sets, wgs)
	}
	return req, nil
}

// Decode rebuilds the engine query and grouping sets of the request for
// table, once per exchange. The predicates are the request's own
// instances, so filters shared by identity stay shared. The query names
// table and covers all of it; the caller sets the row range and sample
// base of each scan.
func (r *ShardRequest) Decode(table string) (*engine.Query, []engine.GroupingSet, error) {
	preds := append([]engine.Predicate{nil}, r.Preds...) // index 0: none
	pred := func(i int) (engine.Predicate, error) {
		if i < 0 || i >= len(preds) {
			return nil, fmt.Errorf("cluster: shard request names predicate %d of %d", i, len(r.Preds))
		}
		return preds[i], nil
	}
	q := &engine.Query{Table: table, SampleFraction: r.SampleFraction, SampleSeed: r.SampleSeed}
	var err error
	if q.Where, err = pred(r.Where); err != nil {
		return nil, nil, err
	}
	var gsets []engine.GroupingSet
	for _, wgs := range r.Sets {
		gs := engine.GroupingSet{By: wgs.By, BinWidths: wgs.BinWidths}
		for _, wa := range wgs.Aggs {
			fn, err := engine.ParseAggFunc(wa.Func)
			if err != nil {
				return nil, nil, err
			}
			spec := engine.AggSpec{Func: fn, Column: wa.Column, Alias: wa.Alias}
			if spec.Filter, err = pred(wa.Filter); err != nil {
				return nil, nil, err
			}
			gs.Aggs = append(gs.Aggs, spec)
		}
		gsets = append(gsets, gs)
	}
	if len(gsets) == 0 {
		return nil, nil, fmt.Errorf("cluster: shard request carries no grouping sets")
	}
	return q, gsets, nil
}
