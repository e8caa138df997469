package core

import (
	"fmt"
	"math/rand"
	"testing"

	"seedb/internal/engine"
	"seedb/internal/stats"
)

// pruneFixture builds a table with a constant dim, a skewed dim, two
// perfectly correlated dims, and a normal dim.
func pruneFixture(t *testing.T) (*engine.Table, *stats.TableStats) {
	t.Helper()
	tb := engine.MustNewTable("p", engine.Schema{
		{Name: "normal", Type: engine.TypeString},
		{Name: "constant", Type: engine.TypeString},
		{Name: "skewed", Type: engine.TypeString},
		{Name: "city", Type: engine.TypeString},
		{Name: "city_code", Type: engine.TypeString},
		{Name: "m", Type: engine.TypeFloat},
	})
	rng := rand.New(rand.NewSource(1))
	cities := []string{"BOS", "SEA", "NYC"}
	for i := 0; i < 2000; i++ {
		skew := "hot"
		if rng.Intn(1000) == 0 {
			skew = fmt.Sprintf("cold%d", rng.Intn(3))
		}
		c := rng.Intn(3)
		_ = tb.AppendRow(
			engine.String(fmt.Sprintf("n%d", rng.Intn(6))),
			engine.String("only"),
			engine.String(skew),
			engine.String(cities[c]),
			engine.String(fmt.Sprintf("code-%d", c)),
			engine.Float(rng.Float64()),
		)
	}
	return tb, stats.NewCollector().Describe(tb)
}

func viewsForDims(dims ...string) []View {
	var out []View
	for _, d := range dims {
		out = append(out, View{Dimension: d, Measure: "m", Func: engine.AggSum})
		out = append(out, View{Dimension: d, Measure: "m", Func: engine.AggCount})
	}
	return out
}

func dimSet(views []View) map[string]bool {
	out := map[string]bool{}
	for _, v := range views {
		out[v.Dimension] = true
	}
	return out
}

func TestPruneLowVariance(t *testing.T) {
	_, ts := pruneFixture(t)
	opts, _ := DefaultOptions().normalize()
	opts.VarianceMinEntropy = 0.02
	st := &RunStats{}
	views := viewsForDims("normal", "constant", "skewed")
	kept := pruneLowVariance(views, ts, opts, st)
	dims := dimSet(kept)
	if dims["constant"] {
		t.Error("constant dimension must be pruned")
	}
	if !dims["normal"] {
		t.Error("normal dimension must survive")
	}
	if dims["skewed"] {
		t.Error("ultra-skewed dimension (entropy ~0) should be pruned at this threshold")
	}
	if st.PrunedViews[PrunedLowVariance] != 4 {
		t.Errorf("pruned view count = %d, want 4 (2 dims × 2 views)", st.PrunedViews[PrunedLowVariance])
	}
	if st.PrunedDims["constant"] != PrunedLowVariance {
		t.Errorf("PrunedDims = %v", st.PrunedDims)
	}
	// Threshold 0 keeps the skewed dim but still drops the constant.
	opts.VarianceMinEntropy = 0
	st2 := &RunStats{}
	kept2 := pruneLowVariance(viewsForDims("constant", "skewed"), ts, opts, st2)
	dims2 := dimSet(kept2)
	if dims2["constant"] || !dims2["skewed"] {
		t.Errorf("threshold-0 pruning wrong: %v", dims2)
	}
}

func TestPruneCorrelated(t *testing.T) {
	tb, _ := pruneFixture(t)
	opts, _ := DefaultOptions().normalize()
	st := &RunStats{}
	represents := map[string][]string{}
	views := viewsForDims("normal", "city", "city_code")
	kept, err := pruneCorrelated(views, tb, stats.NewCollector(), opts, st, represents)
	if err != nil {
		t.Fatal(err)
	}
	dims := dimSet(kept)
	if !dims["normal"] {
		t.Error("uncorrelated dim must survive")
	}
	// The representative is the cluster's first member by name — a
	// function of the table alone.
	if !dims["city"] || dims["city_code"] {
		t.Errorf("correlated pair must collapse to its first member by name, city: %v", dims)
	}
	if len(represents["city"]) != 1 || represents["city"][0] != "city_code" {
		t.Errorf("represents[city] = %v, want [city_code]", represents["city"])
	}
	if st.PrunedViews[PrunedCorrelated] != 2 {
		t.Errorf("pruned views = %d, want 2", st.PrunedViews[PrunedCorrelated])
	}
}

func TestPruneCorrelatedSingleDim(t *testing.T) {
	tb, _ := pruneFixture(t)
	opts, _ := DefaultOptions().normalize()
	st := &RunStats{}
	views := viewsForDims("normal")
	kept, err := pruneCorrelated(views, tb, stats.NewCollector(), opts, st, map[string][]string{})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(views) {
		t.Error("single dimension: nothing to prune")
	}
}

func TestPruneViewsPipeline(t *testing.T) {
	tb, ts := pruneFixture(t)
	opts, _ := DefaultOptions().normalize()
	views := viewsForDims("normal", "constant", "city", "city_code")
	st := &RunStats{}
	outcome, err := pruneViews(views, tb, ts, stats.NewCollector(), opts, st)
	if err != nil {
		t.Fatal(err)
	}
	dims := dimSet(outcome.views)
	if dims["constant"] {
		t.Error("pipeline must apply variance pruning")
	}
	if dims["city"] && dims["city_code"] {
		t.Error("pipeline must apply correlation pruning")
	}
	// All pruning off: everything survives.
	off := opts
	off.PruneLowVariance = false
	off.PruneCorrelated = false
	st2 := &RunStats{}
	outcome2, err := pruneViews(views, tb, ts, stats.NewCollector(), off, st2)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome2.views) != len(views) {
		t.Errorf("no pruning: %d views survived of %d", len(outcome2.views), len(views))
	}
}
