package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"seedb/internal/cluster"
	"seedb/internal/engine"
)

// renderPartial renders every bit of a partial's state.
func renderPartial(p *engine.Partial) string {
	var b strings.Builder
	bits := math.Float64bits
	exact := func(s engine.ExactState) string {
		return fmt.Sprintf("%v/%d/%x/%x", s.Neg, s.Lo, s.Digits, bits(s.Special))
	}
	fmt.Fprintf(&b, "%q %q %v %v\n", p.By, p.Cols, p.Funcs, p.Phys)
	for _, g := range p.Groups {
		for _, k := range g.Key {
			fmt.Fprintf(&b, "%d/%v/%d/%x/%q ", k.Kind, k.Null, k.I, bits(k.F), k.S)
		}
		for _, a := range g.Accs {
			fmt.Fprintf(&b, "[%d %v %x %x %s %s]", a.Count, a.Seen, bits(a.Min), bits(a.Max), exact(a.Sum), exact(a.SumSq))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// renderResponse renders a response, partials bit for bit.
func renderResponse(r *cluster.ShardResponse) string {
	var b strings.Builder
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "run [%d,%d)\n", run.Lo, run.Hi)
		for _, p := range run.Partials {
			b.WriteString(renderPartial(p))
		}
	}
	fmt.Fprintf(&b, "failed %+v\n", r.Failed)
	return b.String()
}

// frameSamples are a request and a response as production builds them —
// partials of a real scan whose keys and measures hold NaN (with a
// payload), ±Inf, −0 and the extremes of the double range — plus a
// hand-built partial carrying a NaN payload, −0 and ±Inf in every float
// field of its state.
func frameSamples(tb testing.TB) (*cluster.ShardRequest, *cluster.ShardResponse) {
	tab := engine.MustNewTable("fz", engine.Schema{{Name: "g", Type: engine.TypeString}, {Name: "m", Type: engine.TypeFloat}})
	specials := []float64{math.Float64frombits(0x7FF8000000000123), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5, 1e300}
	l := tab.StartLoad()
	for i := 0; i < 2500; i++ {
		l.Column(0).(*engine.StringColumn).AppendString(fmt.Sprintf("g%d", i%3))
		l.Column(1).(*engine.FloatColumn).AppendFloat(specials[i%len(specials)])
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	cat := engine.NewCatalog()
	if err := cat.Register(tab); err != nil {
		tb.Fatal(err)
	}
	aggs := []engine.AggSpec{{Func: engine.AggCount}, {Func: engine.AggSum, Column: "m"}, {Func: engine.AggMin, Column: "m"},
		{Func: engine.AggMax, Column: "m"}, {Func: engine.AggVariance, Column: "m", Filter: engine.Compare("g", engine.OpEq, engine.String("g1"))}}
	q := &engine.Query{Table: "fz", Where: engine.Compare("m", engine.OpNe, engine.Float(-2.5))}
	gsets := []engine.GroupingSet{{By: []string{"m"}, Aggs: aggs}, {By: []string{"g", "m"}, BinWidths: map[string]float64{"m": 0.5}, Aggs: aggs[:3]}, {Aggs: aggs[1:]}}
	ps, err := engine.NewExecutor(cat).RunPartials(context.Background(), q, gsets)
	if err != nil {
		tb.Fatal(err)
	}
	req, err := cluster.EncodeShardRequest(q, gsets, "hash", 0, 2500, 2)
	if err != nil {
		tb.Fatal(err)
	}
	req.Fragments = append(req.Fragments, cluster.ShardFragment{Table: "fz__p3", SampleBase: -1, RowLo: 3, RowHi: 1 << 40})

	nan := math.Float64frombits(0xFFF8000000000042)
	hand := &engine.Partial{By: []string{"k"}, Cols: []string{"MIN(m)", "SUM(m)", "COUNT(*)"}, Funcs: []engine.AggFunc{engine.AggMin, engine.AggSum, engine.AggCount}, Phys: []int{0, 0, 1},
		Groups: []engine.PartialGroup{
			{Key: []engine.Value{engine.NullValue(engine.TypeFloat)}, Accs: []engine.AccState{{}, {Count: 1}}},
			{Key: []engine.Value{engine.Float(nan)}, Accs: []engine.AccState{
				{Count: 7, Seen: true, Min: math.Copysign(0, -1), Max: nan,
					Sum:   engine.ExactState{Neg: true, Lo: 3, Digits: []uint32{1, 0, 0xFFFFFFFF}, Special: math.Inf(-1)},
					SumSq: engine.ExactState{Lo: 65, Digits: []uint32{9, 1, 2}, Special: nan}},
				{Count: math.MaxInt64}}},
			{Key: []engine.Value{engine.Float(math.Inf(1))}, Accs: []engine.AccState{{Min: math.Inf(-1)}, {}}},
		}}
	resp := &cluster.ShardResponse{
		Runs:   []cluster.ShardRun{{Lo: 0, Hi: 2500, Partials: ps}, {Lo: 4096, Hi: 5000, Partials: []*engine.Partial{hand}}},
		Failed: []cluster.ShardFragmentStatus{{Fragment: 1, Status: 409, ContentHash: "abc", Error: "diverged"}},
	}
	return req, resp
}

// predicateFrames are request frames whose predicate tables hold nested
// And/Or/Not, IN and NOT IN, IS [NOT] NULL and NaN, ±Inf, −0 and NULL
// literals, each re-encoding to its own bytes, plus predicates nested
// at the decoder's depth bound (accepted) and one past it (refused by
// EncodeShardRequest and by the decoder).
func predicateFrames(tb testing.TB) [][]byte {
	nan, inf, negZero := math.Float64frombits(0x7FF8000000000077), math.Inf(1), math.Copysign(0, -1)
	shared := engine.Compare("m", engine.OpLt, engine.Float(inf))
	nested := engine.And(
		engine.Not(engine.IsNull("g")),
		engine.Or(engine.In("m", engine.Float(nan), engine.Float(-inf), engine.NullValue(engine.TypeFloat)),
			&engine.InPred{Column: "g", Values: []engine.Value{engine.String("g1"), engine.String("")}, Negate: true}),
		engine.IsNotNull("m"),
		engine.Compare("m", engine.OpGe, engine.Float(negZero)),
		engine.Compare("ts", engine.OpGt, engine.Time(time.Unix(0, -1))),
		engine.Eq("n", engine.Int(math.MinInt64)))
	deep := func(depth int) engine.Predicate {
		p := engine.Predicate(engine.IsNull("g"))
		for range depth - 1 {
			p = engine.Not(p)
		}
		return p
	}
	gsets := []engine.GroupingSet{{By: []string{"g"}, Aggs: []engine.AggSpec{{Func: engine.AggCount, Filter: shared},
		{Func: engine.AggSum, Column: "m", Filter: nested}, {Func: engine.AggCount, Filter: shared}}}}
	var frames [][]byte
	for _, where := range []engine.Predicate{nested, shared, engine.Eq("m", engine.Float(nan)), deep(engine.MaxPredicateDepth)} {
		req, err := cluster.EncodeShardRequest(&engine.Query{Table: "fz", Where: where}, gsets, "", 0, 10, 1)
		if err != nil {
			tb.Fatal(err)
		}
		frame, _ := req.MarshalBinary()
		var back cluster.ShardRequest
		if err := back.UnmarshalBinary(frame); err != nil {
			tb.Fatalf("%v: %v", where, err)
		}
		if again, _ := back.MarshalBinary(); !bytes.Equal(again, frame) {
			tb.Fatalf("%v: re-encodes differently", where)
		}
		if len(back.Preds) > 3 || back.Sets[0].Aggs[0].Filter != back.Sets[0].Aggs[2].Filter {
			tb.Fatalf("a filter shared by identity was not sent once: %d predicates, filters %+v", len(back.Preds), back.Sets[0].Aggs)
		}
		frames = append(frames, frame)
	}
	tooDeep := deep(engine.MaxPredicateDepth + 1)
	if _, err := cluster.EncodeShardRequest(&engine.Query{Table: "fz", Where: tooDeep}, gsets, "", 0, 10, 1); err == nil {
		tb.Fatal("a predicate past the depth bound was encoded")
	}
	frame, _ := (&cluster.ShardRequest{Preds: []engine.Predicate{tooDeep}, Where: 1}).MarshalBinary()
	if err := new(cluster.ShardRequest).UnmarshalBinary(frame); err == nil {
		tb.Fatal("a predicate past the depth bound was decoded")
	}
	return append(frames, frame)
}

// deepCountClaims is a request frame whose one predicate nests
// MaxPredicateDepth And nodes, each declaring as many children as the
// bytes left after its count can hold, over a tail of garbage of the
// given length: a decoder that sized each level's children from its
// count would keep depth slices of 16 bytes per input byte live at
// once.
func deepCountClaims(tb testing.TB, tail int) []byte {
	one, _ := (&cluster.ShardRequest{Preds: []engine.Predicate{&engine.AndPred{Children: []engine.Predicate{engine.IsNull("g")}}}}).MarshalBinary()
	hdr := len(cluster.RequestFrameHeader)
	andTag := one[hdr+4+1] // after the table's count, 1
	body := bytes.Repeat([]byte{0xFF}, tail)
	for range engine.MaxPredicateDepth {
		body = append(binary.AppendUvarint([]byte{andTag}, uint64(len(body))), body...)
	}
	payload := append([]byte{1}, body...)
	frame := binary.LittleEndian.AppendUint32([]byte(cluster.RequestFrameHeader), uint32(len(payload)))
	frame = append(frame, payload...)
	if err := new(cluster.ShardRequest).UnmarshalBinary(frame); err == nil {
		tb.Fatal("a chain of And counts over garbage was decoded")
	}
	return frame
}

// TestDeepCountClaimsAllocationBound holds the request decoder to
// FuzzShardFrame's allocation bound on nested And counts that each
// claim every byte left.
func TestDeepCountClaimsAllocationBound(t *testing.T) {
	frame := deepCountClaims(t, 16<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := new(cluster.ShardRequest).UnmarshalBinary(frame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(frame))+64<<10 {
		t.Fatalf("decoding %d bytes allocated %d", len(frame), grew)
	}
}

// FuzzShardFrame holds the /api/shard/exec frame, both directions, to
// what input from outside the process needs: arbitrary bytes never panic
// and make the decoder allocate no more than a constant times their
// length; every accepted frame re-encodes to the same bytes; and
// decode(encode(x)) is x bit for bit — −0, NaN payloads and ±Inf
// included.
func FuzzShardFrame(f *testing.F) {
	req, resp := frameSamples(f)
	reqFrame, err := req.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	var req2 cluster.ShardRequest
	if err := req2.UnmarshalBinary(reqFrame); err != nil || !reflect.DeepEqual(&req2, req) {
		f.Fatalf("request round trip: %v\n%+v\nvs\n%+v", err, req2, req)
	}
	respFrame, err := resp.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	var resp2 cluster.ShardResponse
	if err := resp2.UnmarshalBinary(respFrame); err != nil || renderResponse(&resp2) != renderResponse(resp) {
		f.Fatalf("response round trip: %v\n%s\nvs\n%s", err, renderResponse(&resp2), renderResponse(resp))
	}
	// A digit window no real sum reaches — below limb 0 (Lo −1 encodes as
	// 2^64−1) or past the top — is refused, never handed to a merge.
	for _, lo := range []int32{-1, 66} {
		bad := *resp.Runs[1].Partials[0]
		bad.Groups = []engine.PartialGroup{{Key: []engine.Value{engine.Int(1)}, Accs: []engine.AccState{{Count: 1, Sum: engine.ExactState{Lo: lo, Digits: []uint32{1, 2, 3}}}, {}}}}
		frame, _ := (&cluster.ShardResponse{Runs: []cluster.ShardRun{{Partials: []*engine.Partial{&bad}}}}).MarshalBinary()
		if err := new(cluster.ShardResponse).UnmarshalBinary(frame); err == nil {
			f.Fatalf("a digit window at limb %d was accepted", lo)
		}
		f.Add(frame)
	}
	for _, seed := range [][]byte{reqFrame, respFrame, respFrame[:len(respFrame)/2], []byte(`{"fragments":[]}`), nil} {
		f.Add(seed)
	}
	for _, seed := range predicateFrames(f) {
		f.Add(seed)
	}
	f.Add(deepCountClaims(f, 2<<10))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var req cluster.ShardRequest
		reqErr := req.UnmarshalBinary(data)
		var resp cluster.ShardResponse
		respErr := resp.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if reqErr == nil {
			if again, _ := req.MarshalBinary(); !bytes.Equal(again, data) {
				t.Fatalf("accepted request frame re-encodes differently:\n%x\n%x", data, again)
			}
		}
		if respErr == nil {
			if again, _ := resp.MarshalBinary(); !bytes.Equal(again, data) {
				t.Fatalf("accepted response frame re-encodes differently:\n%x\n%x", data, again)
			}
		}
	})
}
