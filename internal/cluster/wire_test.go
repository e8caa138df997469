package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

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
