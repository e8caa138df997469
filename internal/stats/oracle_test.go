package stats

import (
	"fmt"
	"math"
	"sort"

	"seedb/internal/engine"
)

// The oracle: the metadata collector written the slow, obvious way, as
// the differential reference for the typed summaries. It is the
// collector this package shipped before them, kept as it was — every
// cell boxed into an engine.Value, formatted, and counted in a
// string-keyed map; every statistic finalized from a full sort; every
// Cramér's V from a fresh scan of both columns — and shares none of the
// production machinery. Two things differ from that code: float min/max
// skip NaN and ±Inf (the rule the collector now documents), and the
// entropy term is rounded before it is subtracted (see oracleFinalize).

// oracleKey returns a lossless string key for a non-null value.
// Value.Format would render equal-second timestamps alike.
func oracleKey(v engine.Value) string {
	if v.Kind == engine.TypeTime {
		return fmt.Sprintf("t%d", v.I)
	}
	return v.Format()
}

// oracleCollect computes statistics, TopValues included, for the first
// rows rows of every column.
func oracleCollect(t *engine.Table, rows int) *TableStats {
	ts := &TableStats{Table: t.Name(), Rows: rows, Columns: map[string]*ColumnStats{}}
	t.View(func() {
		for i := 0; i < t.NumCols(); i++ {
			col := t.ColumnAt(i)
			st := &oracleColState{counts: map[string]int{}}
			st.extend(col, 0, rows)
			ts.Columns[col.Name()] = st.finalize(col, rows)
		}
	})
	return ts
}

type oracleColState struct {
	counts      map[string]int // value label -> count
	nulls       int
	min, max    float64
	numericSeen int
}

func (s *oracleColState) extend(col engine.Column, lo, hi int) {
	for row := lo; row < hi; row++ {
		if col.IsNull(row) {
			s.nulls++
			continue
		}
		v := col.Value(row)
		s.counts[oracleKey(v)]++
		if f, ok := v.AsFloat(); ok {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			if s.numericSeen == 0 || f < s.min {
				s.min = f
			}
			if s.numericSeen == 0 || f > s.max {
				s.max = f
			}
			s.numericSeen++
		} else if col.Type() == engine.TypeTime {
			f := float64(v.I)
			if s.numericSeen == 0 || f < s.min {
				s.min = f
			}
			if s.numericSeen == 0 || f > s.max {
				s.max = f
			}
			s.numericSeen++
		}
	}
}

func (s *oracleColState) finalize(col engine.Column, rows int) *ColumnStats {
	cs := &ColumnStats{Name: col.Name(), Type: col.Type(), Rows: rows, Nulls: s.nulls}
	cs.Distinct = len(s.counts)
	if s.numericSeen > 0 {
		cs.Min, cs.Max = s.min, s.max
	}
	nonNull := rows - s.nulls
	if nonNull > 0 {
		// Entropy depends only on the multiset of counts; summing in
		// sorted order makes the float accumulation deterministic (map
		// iteration order is not).
		freqs := make([]int, 0, len(s.counts))
		for _, c := range s.counts {
			freqs = append(freqs, c)
		}
		sort.Ints(freqs)
		h := 0.0
		for _, c := range freqs {
			p := float64(c) / float64(nonNull)
			// The conversion keeps a compiler from fusing the multiply
			// into the subtraction, which rounds once instead of twice.
			h -= float64(p * math.Log(p))
		}
		cs.Entropy = h
		if cs.Distinct > 1 {
			cs.NormEntropy = h / math.Log(float64(cs.Distinct))
		}
	}
	// Top values, by count desc then label asc for determinism.
	top := make([]ValueCount, 0, len(s.counts))
	for v, c := range s.counts {
		top = append(top, ValueCount{Value: v, Count: c})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Count != top[j].Count {
			return top[i].Count > top[j].Count
		}
		return top[i].Value < top[j].Value
	})
	if len(top) > 5 {
		top = top[:5]
	}
	cs.TopValues = top
	return cs
}

// oracleCodes maps the first rows rows of a column to dense category
// codes (-1 for NULL) plus the category count. String columns reuse
// their dictionary; other types build an ad-hoc one in row order.
func oracleCodes(col engine.Column, rows int) ([]int32, int) {
	if sc, ok := col.(*engine.StringColumn); ok {
		return sc.Codes()[:rows], sc.Cardinality()
	}
	codes := make([]int32, rows)
	index := map[string]int32{}
	for row := 0; row < rows; row++ {
		if col.IsNull(row) {
			codes[row] = -1
			continue
		}
		label := oracleKey(col.Value(row))
		code, ok := index[label]
		if !ok {
			code = int32(len(index))
			index[label] = code
		}
		codes[row] = code
	}
	return codes, len(index)
}

// oracleCramersV computes Cramér's V between two columns treated as
// categorical variables, over rows where both are non-null.
func oracleCramersV(t *engine.Table, a, b string) (float64, error) {
	ca, err := t.Column(a)
	if err != nil {
		return 0, err
	}
	cb, err := t.Column(b)
	if err != nil {
		return 0, err
	}
	var codesA, codesB []int32
	var cardA, cardB int
	t.View(func() {
		codesA, cardA = oracleCodes(ca, ca.Len())
		codesB, cardB = oracleCodes(cb, cb.Len())
	})
	if cardA == 0 || cardB == 0 {
		return 0, nil
	}
	cont := make([]int, cardA*cardB)
	rowTot := make([]int, cardA)
	colTot := make([]int, cardB)
	n := 0
	for row := 0; row < len(codesA); row++ {
		i, j := codesA[row], codesB[row]
		if i < 0 || j < 0 {
			continue
		}
		cont[int(i)*cardB+int(j)]++
		rowTot[i]++
		colTot[j]++
		n++
	}
	if n == 0 {
		return 0, nil
	}
	minDim := cardA
	if cardB < minDim {
		minDim = cardB
	}
	if minDim <= 1 {
		return 0, nil // degenerate: one side is constant
	}
	chi2 := 0.0
	for i := 0; i < cardA; i++ {
		if rowTot[i] == 0 {
			continue
		}
		for j := 0; j < cardB; j++ {
			if colTot[j] == 0 {
				continue
			}
			expected := float64(rowTot[i]) * float64(colTot[j]) / float64(n)
			d := float64(cont[i*cardB+j]) - expected
			chi2 += d * d / expected
		}
	}
	v := math.Sqrt(chi2 / (float64(n) * float64(minDim-1)))
	if v > 1 { // numerical safety
		v = 1
	}
	return v, nil
}

// oracleClusters groups the given columns so that any pair with
// Cramér's V ≥ threshold lands in the same cluster (transitively, via
// union-find), sorted by name.
func oracleClusters(t *engine.Table, cols []string, threshold float64) ([][]string, error) {
	parent := make(map[string]string, len(cols))
	for _, c := range cols {
		parent[c] = c
	}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			v, err := oracleCramersV(t, cols[i], cols[j])
			if err != nil {
				return nil, err
			}
			if v >= threshold {
				union(cols[i], cols[j])
			}
		}
	}
	groups := map[string][]string{}
	for _, c := range cols {
		root := find(c)
		groups[root] = append(groups[root], c)
	}
	out := make([][]string, 0, len(groups))
	for _, members := range groups {
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out, nil
}
