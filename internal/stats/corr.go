package stats

import (
	"math"
	"sort"

	"seedb/internal/engine"
)

// maxDenseCells is the contingency-table size (cardA × cardB) past
// which a pair counts into a map instead of a dense slice.
const maxDenseCells = 1 << 20

// pairTable is one attribute pair's contingency table over the rows
// where both are non-null, indexed by the two columns' summary codes
// and covering the prefix [0, rows) like the summaries themselves.
type pairTable struct {
	rows   int
	na, nb int   // allocated dimensions of cells; nb is the row stride
	cells  []int // dense form; nil once sparse
	sparse map[uint64]int
	v      float64 // Cramér's V over those rows
}

// reserve makes room for codes below cardA × cardB, re-striding the
// dense table when the second attribute's code space has grown.
func (p *pairTable) reserve(cardA, cardB int) {
	if p.sparse != nil || (cardA <= p.na && cardB <= p.nb) {
		return
	}
	na, nb := max(cardA, p.na), max(cardB, p.nb)
	if na*nb > maxDenseCells {
		p.sparse = map[uint64]int{}
		for k, c := range p.cells {
			if c != 0 {
				p.sparse[uint64(k/p.nb)<<32|uint64(k%p.nb)] = c
			}
		}
		p.cells = nil
		return
	}
	cells := make([]int, na*nb)
	for i := 0; i < p.na; i++ {
		copy(cells[i*nb:], p.cells[i*p.nb:(i+1)*p.nb])
	}
	p.na, p.nb, p.cells = na, nb, cells
}

// extend counts the code pairs of rows [p.rows, p.rows+len(a)), in the
// table's form as it stands: reserve settles that once per call.
func (p *pairTable) extend(a, b []int32) {
	b = b[:len(a)]
	if p.sparse != nil {
		for r, i := range a {
			if j := b[r]; i >= 0 && j >= 0 {
				p.sparse[uint64(i)<<32|uint64(j)]++
			}
		}
	} else {
		cells, nb := p.cells, p.nb
		for r, i := range a {
			if j := b[r]; i >= 0 && j >= 0 {
				cells[int(i)*nb+int(j)]++
			}
		}
	}
	p.rows += len(a)
}

func (p *pairTable) at(i, j int) int {
	if p.sparse != nil {
		return p.sparse[uint64(i)<<32|uint64(j)]
	}
	return p.cells[i*p.nb+j]
}

// cramersV computes Cramér's V ∈ [0,1] between the pair's attributes,
// treated as categorical variables with cardA and cardB categories. V
// near 1 means the attributes nearly determine each other (the paper's
// airport-name / airport-abbreviation example); SeeDB prunes all but
// one attribute of such a cluster. χ² is summed over the categories in
// code order, which is dictionary or first-seen order and therefore a
// function of the rows alone.
func (p *pairTable) cramersV(cardA, cardB int) float64 {
	minDim := min(cardA, cardB)
	if minDim <= 1 {
		return 0 // degenerate: one side is constant or empty
	}
	rowTot, colTot, n := make([]int, cardA), make([]int, cardB), 0
	for i := range rowTot {
		for j := range colTot {
			c := p.at(i, j)
			rowTot[i] += c
			colTot[j] += c
			n += c
		}
	}
	if n == 0 {
		return 0
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
			d := float64(p.at(i, j)) - expected
			chi2 += d * d / expected
		}
	}
	return min(1, math.Sqrt(chi2/(float64(n)*float64(minDim-1)))) // min: numerical safety
}

// clusters groups cols (at positions idx of the table) so that any pair
// with Cramér's V ≥ threshold lands in the same cluster, transitively
// (union-find); clusters and their members come back sorted by name.
// Each pair's contingency table is extended to rows by reading only the
// rows it has not counted, and its V is reused while none has arrived.
// Caller holds st.mu and the table's read lock, with the summaries
// already extended to rows.
func (st *tableState) clusters(t *engine.Table, idx []int, cols []string, threshold float64, rows int) [][]string {
	// The pairs with rows to count, each once however often cols names
	// it, and the first row any of them lacks.
	type stale struct {
		p    *pairTable
		i, j int
	}
	var todo []stale
	queued := map[*pairTable]bool{}
	from := rows
	for a, i := range idx {
		for _, j := range idx[a+1:] {
			p := st.pairs[[2]int{i, j}]
			if p == nil {
				p = &pairTable{}
				st.pairs[[2]int{i, j}] = p
			}
			if p.rows < rows && !queued[p] {
				queued[p] = true
				todo = append(todo, stale{p, i, j})
				st.pairVisits += rows - p.rows
				from = min(from, p.rows)
			}
		}
	}
	// Each column's codes over those rows, fetched once however many
	// pairs share the column.
	codes, card := map[int][]int32{}, map[int]int{}
	for _, i := range idx {
		if _, ok := codes[i]; ok || from == rows {
			continue
		}
		if sc, ok := t.ColumnAt(i).(*engine.StringColumn); ok {
			codes[i], card[i] = sc.Codes()[from:rows], sc.Cardinality()
		} else {
			codes[i], card[i] = make([]int32, rows-from), len(st.cols[i].counts)
			st.cols[i].codesInto(codes[i], t.ColumnAt(i), from)
		}
	}
	// The pairs are counted on the fan-out, each by one goroutine; the
	// union-find reads them in order afterwards.
	fanOut(len(todo), rows-from, func(k int) {
		p, i, j := todo[k].p, todo[k].i, todo[k].j
		p.reserve(card[i], card[j])
		p.extend(codes[i][p.rows-from:], codes[j][p.rows-from:])
		p.v = p.cramersV(card[i], card[j])
	})

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
	for a, i := range idx {
		for b := a + 1; b < len(idx); b++ {
			if st.pairs[[2]int{i, idx[b]}].v >= threshold {
				parent[find(cols[a])] = find(cols[b])
			}
		}
	}
	groups := map[string][]string{}
	for _, c := range cols {
		groups[find(c)] = append(groups[find(c)], c)
	}
	out := make([][]string, 0, len(groups))
	for _, members := range groups {
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
