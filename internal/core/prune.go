package core

import (
	"sort"

	"seedb/internal/engine"
	"seedb/internal/stats"
)

// pruneOutcome describes the surviving views plus bookkeeping about
// what was dropped and who represents whom.
type pruneOutcome struct {
	views []View
	// representative dimension -> other dimensions it stands in for
	represents map[string][]string
}

// pruneViews applies the paper's metadata-driven view-space pruning
// strategies in order: variance-based, then correlated-attribute
// clustering. Each strategy removes whole dimensions (and with them
// every view on that dimension), recording reasons in st. Both read
// only the table's contents, never the process's query history, so the
// same request always keeps the same views.
func pruneViews(views []View, tb *engine.Table, ts *stats.TableStats, coll *stats.Collector, opts Options, st *RunStats) (pruneOutcome, error) {
	out := pruneOutcome{views: views, represents: map[string][]string{}}

	if opts.PruneLowVariance {
		out.views = pruneLowVariance(out.views, ts, opts, st)
	}
	if opts.PruneCorrelated {
		var err error
		out.views, err = pruneCorrelated(out.views, tb, coll, opts, st, out.represents)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// pruneLowVariance drops dimensions whose value distribution is nearly
// degenerate: a single distinct value, or normalized entropy below the
// threshold ("dimension attributes with low variance are likely to
// produce views having low utility", §3.3). Entropy generalizes
// variance to categorical attributes: an attribute taking one value
// has entropy 0, a heavily skewed attribute is close to it.
func pruneLowVariance(views []View, ts *stats.TableStats, opts Options, st *RunStats) []View {
	dropped := map[string]bool{}
	kept := views[:0]
	for _, v := range views {
		if keep, seen := dimDecision(dropped, v.Dimension); seen {
			if keep {
				kept = append(kept, v)
			} else {
				st.addPrune(PrunedLowVariance, "", 1)
			}
			continue
		}
		cs, err := ts.Column(v.Dimension)
		keep := err == nil && cs.Distinct > 1 && cs.NormEntropy >= opts.VarianceMinEntropy
		dropped[v.Dimension] = !keep
		if keep {
			kept = append(kept, v)
		} else {
			st.addPrune(PrunedLowVariance, v.Dimension, 1)
		}
	}
	return kept
}

func dimDecision(m map[string]bool, dim string) (keep, seen bool) {
	drop, ok := m[dim]
	return !drop, ok
}

// pruneCorrelated clusters the surviving dimensions by Cramér's V and
// keeps one representative view-set per cluster ("SEEDB clusters
// attributes based on correlation and evaluates a representative view
// per cluster", §3.3). The representative is the cluster's first
// member by name (CorrelationClusters sorts members), a pure function of
// the table.
func pruneCorrelated(views []View, tb *engine.Table, coll *stats.Collector, opts Options, st *RunStats, represents map[string][]string) ([]View, error) {
	dims, byDim := viewsByDimension(views)
	// Binned (continuous) dimensions are excluded from correlation
	// clustering: Cramér's V over thousands of raw numeric categories
	// is meaningless and quadratic in the distinct count.
	var clusterable []string
	for _, d := range dims {
		if len(byDim[d]) > 0 && byDim[d][0].BinWidth == 0 {
			clusterable = append(clusterable, d)
		}
	}
	dims = clusterable
	if len(dims) < 2 {
		return views, nil
	}
	clusters, err := coll.CorrelationClusters(tb, dims, opts.CorrelationThreshold)
	if err != nil {
		return nil, err
	}
	keepDim := map[string]bool{}
	clustered := map[string]bool{}
	for _, cluster := range clusters {
		rep := cluster[0]
		keepDim[rep] = true
		for _, member := range cluster {
			clustered[member] = true
			if member != rep {
				represents[rep] = append(represents[rep], member)
				st.addPrune(PrunedCorrelated, member, 0)
			}
		}
		sort.Strings(represents[rep])
	}
	kept := views[:0]
	for _, v := range views {
		if keepDim[v.Dimension] || !clustered[v.Dimension] {
			kept = append(kept, v)
		} else {
			st.addPrune(PrunedCorrelated, "", 1)
		}
	}
	return kept, nil
}
