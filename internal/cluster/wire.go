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
//     ranges run on the coordinator's executor (NewLocal).
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
	"strings"

	"seedb/internal/engine"
	"seedb/internal/sql"
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
const FrameContentType, frameHeader = "application/x-seedb-frame", "SDBX\x01"

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
// worker is to scan for it. Predicates travel as SQL text (the same
// dialect the analyst front door parses).
type ShardRequest struct {
	WhereSQL       string  `json:"where,omitempty"`
	SampleFraction float64 `json:"sampleFraction,omitempty"`
	SampleSeed     uint64  `json:"sampleSeed,omitempty"`
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
	c.Str(&r.WhereSQL)
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
			c.Str(&a.FilterSQL)
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
	// ContentHash pins the data the coordinator planned against
	// (engine.Table.ContentHash — equal data hashes equal across
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

// ShardAgg mirrors engine.AggSpec; the per-aggregate filter travels as
// SQL text like the WHERE clause.
type ShardAgg struct {
	Func      string `json:"func"`
	Column    string `json:"column,omitempty"`
	Alias     string `json:"alias,omitempty"`
	FilterSQL string `json:"filter,omitempty"`
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
	// ContentHash. Hashing is O(table), so it is opt-in: coordinators
	// always set it when forwarding (replica re-verification is the
	// point), while a plain client streaming batches into a single
	// node can skip it and keep ingest O(delta).
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
	// ContentHash digests the post-append table, so the coordinator
	// can verify the replica still carries byte-identical data. Empty
	// unless the request set Verify.
	ContentHash string `json:"contentHash,omitempty"`
}

// EncodeShardRequest lowers (q, gsets) restricted to rows [lo,hi) of
// q.Table into the wire form, as an exchange of one fragment. It fails
// when a predicate cannot be rendered as SQL — callers treat that as
// "this query cannot be distributed" and run the range locally instead.
func EncodeShardRequest(q *engine.Query, gsets []engine.GroupingSet, contentHash string, lo, hi, parallelism int) (*ShardRequest, error) {
	req := &ShardRequest{
		SampleFraction: q.SampleFraction,
		SampleSeed:     q.SampleSeed,
		Parallelism:    parallelism,
		Fragments: []ShardFragment{{Table: q.Table, ContentHash: contentHash,
			SampleBase: q.SampleBase, RowLo: lo, RowHi: hi}},
	}
	var err error
	if req.WhereSQL, err = renderPredicateSQL(q.Where); err != nil {
		return nil, err
	}
	if gsets == nil {
		gsets = []engine.GroupingSet{{By: q.GroupBy, Aggs: q.Aggs, BinWidths: q.BinWidths}}
	}
	for _, gs := range gsets {
		wgs := ShardGroupingSet{By: gs.By, BinWidths: gs.BinWidths}
		for _, a := range gs.Aggs {
			wa := ShardAgg{Func: a.Func.String(), Column: a.Column, Alias: a.Alias}
			if wa.FilterSQL, err = renderPredicateSQL(a.Filter); err != nil {
				return nil, err
			}
			wgs.Aggs = append(wgs.Aggs, wa)
		}
		req.Sets = append(req.Sets, wgs)
	}
	return req, nil
}

// Decode rebuilds the engine query and grouping sets of the request
// against table in the worker's catalog, once per exchange: literals
// are coerced to that table's column types, and each distinct filter
// is parsed once and the instance reused, preserving the engine's
// filter-deduplication (identical filters are evaluated once per row).
// The query names table and covers all of it; the caller sets the row
// range and sample base of each scan.
func (r *ShardRequest) Decode(cat *engine.Catalog, table string) (*engine.Query, []engine.GroupingSet, error) {
	preds := map[string]engine.Predicate{}
	parse := func(sqlText string) (engine.Predicate, error) {
		if sqlText == "" {
			return nil, nil
		}
		if p, ok := preds[sqlText]; ok {
			return p, nil
		}
		_, p, err := sql.AnalystQuery(fmt.Sprintf("SELECT * FROM %s WHERE %s", table, sqlText), cat)
		if err != nil {
			return nil, fmt.Errorf("cluster: parsing shard predicate %q: %w", sqlText, err)
		}
		preds[sqlText] = p
		return p, nil
	}
	q := &engine.Query{Table: table, SampleFraction: r.SampleFraction, SampleSeed: r.SampleSeed}
	var err error
	if q.Where, err = parse(r.WhereSQL); err != nil {
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
			if spec.Filter, err = parse(wa.FilterSQL); err != nil {
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

// renderPredicateSQL renders a predicate tree as parseable SQL text.
// It mirrors Predicate.String but quotes timestamp literals (the SQL
// front door coerces quoted strings against TIMESTAMP columns), so the
// text round-trips through the worker's parser. nil and TruePred
// render empty (no WHERE clause).
func renderPredicateSQL(p engine.Predicate) (string, error) {
	if p == nil {
		return "", nil
	}
	switch pred := p.(type) {
	case engine.TruePred:
		return "", nil
	case *engine.ComparePred:
		return fmt.Sprintf("%s %s %s", pred.Column, pred.Op, renderValueSQL(pred.Value)), nil
	case *engine.InPred:
		parts := make([]string, len(pred.Values))
		for i, v := range pred.Values {
			parts[i] = renderValueSQL(v)
		}
		kw := "IN"
		if pred.Negate {
			kw = "NOT IN"
		}
		return fmt.Sprintf("%s %s (%s)", pred.Column, kw, strings.Join(parts, ", ")), nil
	case *engine.NullPred:
		return pred.String(), nil
	case *engine.AndPred:
		return renderJoinSQL(pred.Children, true)
	case *engine.OrPred:
		return renderJoinSQL(pred.Children, false)
	case *engine.NotPred:
		child, err := renderPredicateSQL(pred.Child)
		if err != nil {
			return "", err
		}
		if child == "" {
			return "", fmt.Errorf("cluster: cannot render NOT TRUE")
		}
		return "NOT (" + child + ")", nil
	default:
		return "", fmt.Errorf("cluster: predicate %T has no SQL wire form", p)
	}
}

// renderJoinSQL renders a conjunction (and=true) or disjunction. The
// SQL dialect has no TRUE literal, so TruePred children (which render
// empty) are folded algebraically: TRUE is the identity of AND and
// absorbs OR entirely.
func renderJoinSQL(children []engine.Predicate, and bool) (string, error) {
	var parts []string
	for _, c := range children {
		s, err := renderPredicateSQL(c)
		if err != nil {
			return "", err
		}
		if s == "" {
			if and {
				continue // TRUE AND x = x
			}
			return "", nil // TRUE OR x = TRUE: no constraint at all
		}
		parts = append(parts, "("+s+")")
	}
	sep := " OR "
	if and {
		sep = " AND "
	}
	return strings.Join(parts, sep), nil
}

// renderValueSQL renders a literal: strings quoted with ” escaping,
// timestamps quoted so the worker's parser re-coerces them, numbers in
// full precision.
func renderValueSQL(v engine.Value) string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case engine.TypeString, engine.TypeTime:
		return "'" + strings.ReplaceAll(v.Format(), "'", "''") + "'"
	default:
		return v.Format()
	}
}
