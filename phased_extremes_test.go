package seedb

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

// extremesDB holds the two tables of TestPhasedExtremesMatchSinglePass,
// 2,048 rows each, p alternating x/y in pairs of rows:
//   - "repro": g alternating a/b; mn is 10 for b, and for a 0 in rows
//     < 1024 and 5 after; mx is -mn (so a's first half is -0);
//   - "shapes": g cycling over neg (every m negative), zero (every m 0),
//     half (m NULL in rows < 1024) and mixed (signs alternate).
func extremesDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	repro, err := NewTable("repro", Schema{{Name: "g", Type: TypeString}, {Name: "p", Type: TypeString},
		{Name: "mn", Type: TypeFloat}, {Name: "mx", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := NewTable("shapes", Schema{{Name: "g", Type: TypeString}, {Name: "p", Type: TypeString},
		{Name: "m", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	p := func(r int) Value { return String([]string{"x", "y"}[r/2%2]) }
	for r := range 2048 {
		g, mn := "b", 10.0
		if r%2 == 0 {
			g, mn = "a", 0
			if r >= 1024 {
				mn = 5
			}
		}
		if err := repro.AppendRow(String(g), p(r), Float(mn), Float(-mn)); err != nil {
			t.Fatal(err)
		}
		var m Value
		switch g := []string{"neg", "zero", "half", "mixed"}[r%4]; g {
		case "neg":
			m = Float(-1 - float64(r%7))
		case "zero":
			m = Float(0)
		case "half":
			m = Float(float64(r % 9))
			if r < 1024 {
				m = NullValue(TypeFloat)
			}
		case "mixed":
			m = Float(float64(r%11) - 5)
		}
		if err := shapes.AppendRow(String([]string{"neg", "zero", "half", "mixed"}[r%4]), p(r), m); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range []*Table{repro, shapes} {
		if err := db.RegisterTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// renderExtremes serializes every view of a result — groups, both sides'
// raw values and the utility — bit for bit.
func renderExtremes(res *Result) string {
	var b strings.Builder
	for _, rec := range res.Recommendations {
		d := rec.Data
		fmt.Fprintf(&b, "%s utility=%x\n", d.View, math.Float64bits(d.Utility))
		for i, k := range d.Keys {
			fmt.Fprintf(&b, "  %s target=%x comparison=%x\n", k,
				math.Float64bits(d.TargetRaw[i]), math.Float64bits(d.ComparisonRaw[i]))
		}
	}
	return b.String()
}

// TestPhasedExtremesMatchSinglePass: phased MIN/MAX views — merged
// across phases — equal the single-pass views bit for bit, including a
// side whose extreme in some phase is exactly 0 (or -0), groups that are
// all negative or all zero, and a group that is all NULL in one phase;
// at every phase count, solo and placed rf=2.
func TestPhasedExtremesMatchSinglePass(t *testing.T) {
	ctx := context.Background()
	opts := DefaultOptions()
	opts.K = 100
	opts.AggFuncs = []AggFunc{AggMin, AggMax}
	opts.PruneLowVariance, opts.PruneCorrelated, opts.BinContinuousDims = false, false, false
	opts.Dimensions = []string{"g"}
	opts.PhaseConfidence = 0.95
	opts.Parallelism = 1
	solo := extremesDB(t)
	placed := extremesDB(t)
	if _, err := placed.PlaceMembers(ctx, 2, PlacementConfig{Replication: 2, PlacementChunks: 1}); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"repro", "shapes"} {
		pred := Eq("p", String("x"))
		want, err := solo.Recommend(ctx, table, pred, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Recommendations) == 0 {
			t.Fatalf("%s: no views", table)
		}
		if table == "repro" {
			// The single-pass answer the phased one must reach: MIN(mn) BY g
			// reads a = 0, not the second half's 5.
			for _, rec := range want.Recommendations {
				if d := rec.Data; d.View.String() == "MIN(mn) BY g" && (d.Keys[0] != "a" || d.TargetRaw[0] != 0) {
					t.Fatalf("single-pass MIN(mn) BY g: keys %v, target %v", d.Keys, d.TargetRaw)
				}
			}
		}
		for phases := 1; phases <= 8; phases++ {
			for _, c := range []struct {
				name string
				db   *DB
			}{{"solo", solo}, {"placed", placed}} {
				o := opts
				o.Phases = phases
				got, err := c.db.Recommend(ctx, table, pred, o)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := renderExtremes(got), renderExtremes(want); g != w {
					t.Errorf("%s %s Phases=%d differs from single pass:\ngot:\n%s\nwant:\n%s", table, c.name, phases, g, w)
				}
			}
		}
	}
}
