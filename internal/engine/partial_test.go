package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// partialTestTable builds a table with a string dimension, an int
// dimension, and a float measure whose two-decimal values make float
// summation order-sensitive — exactly the shape that exposes
// non-deterministic merges.
func partialTestTable(t *testing.T, rows int, seed int64) *Table {
	t.Helper()
	tb, err := NewTable("pt", Schema{
		{Name: "d", Type: TypeString},
		{Name: "g", Type: TypeInt},
		{Name: "m", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	dims := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < rows; i++ {
		m := math.Round(rng.Float64()*20000-10000) / 100
		var mv Value
		if rng.Intn(50) == 0 {
			mv = NullValue(TypeFloat)
		} else {
			mv = Float(m)
		}
		if err := tb.AppendRow(String(dims[rng.Intn(len(dims))]), Int(int64(rng.Intn(4))), mv); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func partialTestQuery(par int) *Query {
	return &Query{
		Table:       "pt",
		GroupBy:     []string{"d"},
		Parallelism: par,
		Aggs: []AggSpec{
			{Func: AggCount, Alias: "n"},
			{Func: AggSum, Column: "m", Alias: "s"},
			{Func: AggAvg, Column: "m", Alias: "a"},
			{Func: AggMin, Column: "m", Alias: "lo"},
			{Func: AggMax, Column: "m", Alias: "hi"},
			{Func: AggVariance, Column: "m", Alias: "v"},
			{Func: AggStddev, Column: "m", Alias: "sd"},
			{Func: AggSum, Column: "m", Filter: Eq("g", Int(1)), Alias: "fs"},
		},
	}
}

func resultBytes(t *testing.T, r *Result) string {
	t.Helper()
	var out string
	for _, row := range r.Rows {
		for _, v := range row {
			if v.Kind == TypeFloat && !v.Null {
				out += fmt.Sprintf("%x|", math.Float64bits(v.F))
			} else {
				out += v.Format() + "|"
			}
		}
		out += "\n"
	}
	return out
}

// TestPartialMergeMatchesSingleScan is the core determinism property:
// for every split count, merging per-range partials finalizes to the
// byte-identical result of one whole-table scan — for every aggregate
// function including AVG/VAR/STDDEV.
func TestPartialMergeMatchesSingleScan(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 10_000, 11)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)

	want, err := ex.Run(ctx, partialTestQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := resultBytes(t, want)

	for _, n := range []int{1, 2, 3, 4, 8, 17, 64} {
		ranges := ShardRanges(tb.NumRows(), 0, 0, n)
		var merged *Partial
		for _, rg := range ranges {
			q := partialTestQuery(1)
			q.RowLo, q.RowHi = rg[0], rg[1]
			ps, err := ex.RunPartials(ctx, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if merged == nil {
				merged = ps[0]
				continue
			}
			if err := merged.Merge(ps[0]); err != nil {
				t.Fatal(err)
			}
		}
		got := resultBytes(t, merged.Finalize())
		if got != wantBytes {
			t.Fatalf("n=%d: merged partials differ from single scan:\n%s\nvs\n%s", n, got, wantBytes)
		}
	}
}

// TestPartialMergeOrderIrrelevant merges the same range partials in
// scrambled orders; exact accumulator state makes the bytes identical.
func TestPartialMergeOrderIrrelevant(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 5_000, 5)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	ranges := ShardRanges(tb.NumRows(), 0, 0, 8)
	parts := make([]*Partial, len(ranges))
	for i, rg := range ranges {
		q := partialTestQuery(1)
		q.RowLo, q.RowHi = rg[0], rg[1]
		ps, err := ex.RunPartials(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = ps[0]
	}
	mergeOrder := func(order []int) string {
		// Deep-copy through the frame so reruns don't share mutated state.
		var acc *Partial
		for _, i := range order {
			cp := clonePartial(t, parts[i])
			if acc == nil {
				acc = cp
				continue
			}
			if err := acc.Merge(cp); err != nil {
				t.Fatal(err)
			}
		}
		return resultBytes(t, acc.Finalize())
	}
	fwdOrder := make([]int, len(parts))
	revOrder := make([]int, len(parts))
	for i := range parts {
		fwdOrder[i] = i
		revOrder[len(parts)-1-i] = i
	}
	mixOrder := append([]int(nil), fwdOrder...)
	rand.New(rand.NewSource(17)).Shuffle(len(mixOrder), func(i, j int) {
		mixOrder[i], mixOrder[j] = mixOrder[j], mixOrder[i]
	})
	fwd := mergeOrder(fwdOrder)
	rev := mergeOrder(revOrder)
	mix := mergeOrder(mixOrder)
	if fwd != rev || fwd != mix {
		t.Fatalf("merge order changed result bytes")
	}
}

// TestScanParallelismInvariance: the same query returns byte-identical
// results for every Parallelism setting — the property that let the
// exec cache drop Parallelism from its keys.
func TestScanParallelismInvariance(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 20_000, 23)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	var want string
	for _, par := range []int{1, 2, 3, 4, 8, 32} {
		res, err := ex.Run(ctx, partialTestQuery(par))
		if err != nil {
			t.Fatal(err)
		}
		got := resultBytes(t, res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("parallelism %d changed result bytes", par)
		}
	}
	// Sampling composes with partitioning: row-index based sampling plus
	// grid-aligned splits keep sampled results invariant too.
	for _, par := range []int{1, 7} {
		q := partialTestQuery(par)
		q.SampleFraction = 0.35
		q.SampleSeed = 99
		res, err := ex.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if par == 1 {
			want = resultBytes(t, res)
		} else if got := resultBytes(t, res); got != want {
			t.Fatalf("sampled scan not parallelism-invariant")
		}
	}
}

// TestPartialJSONRoundTrip: the JSON debugging view of finite state
// round-trips (tooling marshals partials and shard responses to JSON;
// the wire is the binary frame, see frame_test.go).
func TestPartialJSONRoundTrip(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 3_000, 77)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	// Multi-column group keys and binning exercise the generic path.
	q := &Query{
		Table:       "pt",
		GroupBy:     []string{"d", "g"},
		Parallelism: 2,
		Aggs: []AggSpec{
			{Func: AggSum, Column: "m", Alias: "s"},
			{Func: AggAvg, Column: "m", Alias: "a"},
		},
	}
	want, err := ex.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ex.RunPartials(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(ps[0])
	if err != nil {
		t.Fatal(err)
	}
	var back Partial
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got, wantB := resultBytes(t, back.Finalize()), resultBytes(t, want); got != wantB {
		t.Fatalf("JSON round-trip changed finalized bytes:\n%s\nvs\n%s", got, wantB)
	}
}

// clonePartial deep-copies p through the binary frame.
func clonePartial(t *testing.T, p *Partial) *Partial {
	t.Helper()
	frame := EncodeFrame("", func(c FrameCodec) { c.Partial(&p) })
	var cp *Partial
	if err := DecodeFrame(frame, "", func(c FrameCodec) { c.Partial(&cp) }); err != nil {
		t.Fatal(err)
	}
	return cp
}

// accumulatorOf rebuilds the in-memory accumulator of a state.
func accumulatorOf(st AccState) accumulator {
	return accumulator{count: st.Count, exSum: exactFromState(st.Sum), exSumSq: exactFromState(st.SumSq),
		min: st.Min, max: st.Max, seen: st.Seen}
}

// chainMergeOracle is Partial.Merge as it stood before MergePartials
// became the one merger, over physical state: index p's groups, fold
// matching groups' AccStates pairwise through accumulatorOf/accState,
// append the rest verbatim, re-sort. Kept as the reference the merger is
// compared with.
func chainMergeOracle(t *testing.T, p, o *Partial) {
	t.Helper()
	if fmt.Sprint(p.Phys) != fmt.Sprint(o.Phys) {
		t.Fatalf("oracle: physical maps differ: %v vs %v", p.Phys, o.Phys)
	}
	idx := make(map[string]int, len(p.Groups))
	for i, g := range p.Groups {
		idx[string(appendValueKey(nil, g.Key))] = i
	}
	for _, og := range o.Groups {
		if i, ok := idx[string(appendValueKey(nil, og.Key))]; ok {
			dst := p.Groups[i].Accs
			for j := range dst {
				aa, bb := accumulatorOf(dst[j]), accumulatorOf(og.Accs[j])
				aa.count += bb.count
				aa.exSum.Merge(&bb.exSum)
				aa.exSumSq.Merge(&bb.exSumSq)
				if bb.seen {
					mergeExtremes(&aa.seen, &aa.min, &aa.max, bb.min, bb.max)
				}
				dst[j] = accState(&aa)
			}
			continue
		}
		idx[string(appendValueKey(nil, og.Key))] = len(p.Groups)
		p.Groups = append(p.Groups, PartialGroup{Key: og.Key, Accs: append([]AccState(nil), og.Accs...)})
	}
	sort.Slice(p.Groups, func(i, j int) bool { return compareKeys(p.Groups[i].Key, p.Groups[j].Key) < 0 })
}

// TestMergePartialsMatchesChain: MergePartials over k random partials
// of one table — random cut points, so groups come and go between
// partitions, with ±0, NaN and ±Inf in the measure — is byte-for-byte
// (partialBytes: physical state and map) what chaining Partial.Merge
// gives, and what the pre-merger Merge gave. Partials whose physical
// maps differ do not merge.
func TestMergePartialsMatchesChain(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := partialTestTable(t, 3000+rng.Intn(3000), seed)
		specials := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1)}
		for i := 0; i < 40; i++ {
			if err := tb.AppendRow(String(fmt.Sprintf("s%d", rng.Intn(6))), Int(int64(rng.Intn(4))), Float(specials[rng.Intn(len(specials))])); err != nil {
				t.Fatal(err)
			}
		}
		cat := NewCatalog()
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(cat)
		cuts := []int{0, tb.NumRows()}
		for k := 1 + rng.Intn(12); k > 0; k-- {
			cuts = append(cuts, rng.Intn(tb.NumRows()))
		}
		sort.Ints(cuts)
		gsets := []GroupingSet{
			{By: []string{"d"}, Aggs: partialTestQuery(1).Aggs},
			{By: []string{"g", "d"}, Aggs: partialTestQuery(1).Aggs[:5]},
			{Aggs: partialTestQuery(1).Aggs[3:6]},
		}
		var parts [][]*Partial
		for i := 1; i < len(cuts); i++ {
			if cuts[i] == cuts[i-1] {
				continue
			}
			q := &Query{Table: "pt", RowLo: cuts[i-1], RowHi: cuts[i], Parallelism: 1}
			ps, err := ex.RunPartials(ctx, q, gsets)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, ps)
		}
		render := func(pss [][]*Partial) string {
			var b strings.Builder
			for _, ps := range pss {
				for _, p := range ps {
					b.WriteString(partialBytes(p))
				}
			}
			return b.String()
		}
		before := render(parts)
		got, err := MergePartials(parts)
		if err != nil {
			t.Fatal(err)
		}
		if render(parts) != before {
			t.Fatalf("seed %d: MergePartials mutated its inputs", seed)
		}
		for s := range gsets {
			chain, oracle := clonePartial(t, parts[0][s]), clonePartial(t, parts[0][s])
			for _, ps := range parts[1:] {
				if err := chain.Merge(clonePartial(t, ps[s])); err != nil {
					t.Fatal(err)
				}
				chainMergeOracle(t, oracle, clonePartial(t, ps[s]))
			}
			have, want, ref := partialBytes(got[s]), partialBytes(chain), partialBytes(oracle)
			if have != want || have != ref {
				t.Fatalf("seed %d set %d (%d partitions): merger, chained Merge and the oracle disagree:\n%s\n%s\n%s",
					seed, s, len(parts), have, want, ref)
			}
		}
		if len(got[0].Phys) < 2 || numPhys(got[0].Phys) >= len(got[0].Phys) {
			t.Fatalf("seed %d: %d aggregates over %v physical accumulators: nothing shared", seed, len(got[0].Phys), got[0].Phys)
		}
		remapped := clonePartial(t, parts[0][0])
		remapped.Phys[0], remapped.Phys[1] = remapped.Phys[1], remapped.Phys[0]
		if _, err := MergePartials([][]*Partial{{parts[0][0]}, {remapped}}); err == nil {
			t.Fatalf("seed %d: partials with different physical maps merged", seed)
		}
	}
	if _, err := MergePartials([][]*Partial{{{Cols: []string{"a"}, Funcs: []AggFunc{AggCount}, Phys: []int{0}}}, {nil}}); err == nil {
		t.Fatal("a nil partial must be an error, not a panic")
	}
}
