package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"seedb"
	"seedb/internal/engine"
)

// queryGen draws analyst queries for one table. It is schema-directed:
// the string dimensions, their values and the value frequencies are read
// from the generated table itself (not from the product's stats layer),
// every query is a conjunction of one or two IN-lists whose measured
// selectivity lies in the requested band, and no query is ever emitted
// twice by one generator. The program under test sees only the SQL text
// or the Predicate.
//
// Dimensions that determine one another (subcategory -> category) are
// never filtered on. The product prunes such a cluster down to the member
// its catalog has seen accessed most, and a predicate counts as an
// access, so a filter on one of them makes the answer depend on the DB's
// query history: a coordinator (whose catalog never records the workers'
// scans), a long-lived server and a fresh DB then rank different views
// for the same request, and no oracle could tell a wrong answer from
// that. Filters on independent dimensions leave the choice at its
// alphabetical tie-break everywhere.
type queryGen struct {
	rng   *rand.Rand
	table string
	rows  int
	dims  []genDim
	seen  map[string]struct{}
}

type genDim struct {
	name  string
	dict  []string
	codes []int32
	freq  []float64 // share of rows per dictionary code
}

// genQuery is one generated analyst query in both of its input forms.
type genQuery struct {
	SQL         string
	Predicate   seedb.Predicate
	Selectivity float64 // measured share of rows selected
}

// bandTolerance is how far (relative) a query's measured selectivity may
// lie from its band's centre. Scan cost follows the rows selected, so a
// wide tolerance would put input noise into every latency median.
const bandTolerance = 0.10

// The bands the workloads draw from. An op class always draws from one
// band: a class that mixed bands would have one latency mode per band and
// a median that sits in the gap between two of them.
const (
	typicalBand = 0.10 // an analyst's subset: the paper's 10 % target
	broadBand   = 0.50
)

func newQueryGen(t *seedb.Table, seed uint64) (*queryGen, error) {
	g := &queryGen{
		rng:   rand.New(rand.NewPCG(seed, 0x5eedb)),
		table: t.Name(),
		rows:  t.NumRows(),
		seen:  map[string]struct{}{},
	}
	for _, def := range t.Schema() {
		col, err := t.Column(def.Name)
		if err != nil {
			return nil, err
		}
		sc, ok := col.(*engine.StringColumn)
		if !ok || sc.Cardinality() < 2 {
			continue
		}
		d := genDim{name: def.Name, dict: sc.Dict(), codes: sc.Codes(), freq: make([]float64, sc.Cardinality())}
		for _, c := range d.codes {
			if c >= 0 {
				d.freq[c]++
			}
		}
		for i := range d.freq {
			d.freq[i] /= float64(g.rows)
		}
		g.dims = append(g.dims, d)
	}
	g.dims = dropDependent(g.dims)
	if len(g.dims) < 2 {
		return nil, fmt.Errorf("querygen: table %q needs at least two string dimensions", g.table)
	}
	return g, nil
}

// dropDependent removes every dimension that is a function of another
// one, or has another one as a function of it.
func dropDependent(dims []genDim) []genDim {
	determines := func(a, b *genDim) bool {
		image := make([]int32, len(a.dict))
		for i := range image {
			image[i] = -1
		}
		for r, ca := range a.codes {
			if cb := b.codes[r]; ca >= 0 && cb >= 0 {
				if image[ca] == -1 {
					image[ca] = cb
				} else if image[ca] != cb {
					return false
				}
			}
		}
		return true
	}
	dependent := make([]bool, len(dims))
	for i := range dims {
		for j := range dims {
			if i != j && determines(&dims[i], &dims[j]) {
				dependent[i], dependent[j] = true, true
			}
		}
	}
	var keep []genDim
	for i, d := range dims {
		if !dependent[i] {
			keep = append(keep, d)
		}
	}
	return keep
}

// next draws a never-before-seen query selecting about band (a share of
// the rows, e.g. 0.10).
func (g *queryGen) next(band float64) genQuery {
	for {
		a := g.rng.IntN(len(g.dims))
		b := g.rng.IntN(len(g.dims) - 1)
		if b >= a {
			b++
		}
		da, db := &g.dims[a], &g.dims[b]
		// Split the band between the two dimensions at a random point (in
		// log space) so both narrow×wide and even splits occur.
		share := math.Pow(band, 0.25+0.5*g.rng.Float64())
		setA := g.pickValues(da, share)
		setB := g.pickValues(db, band/sumFreq(da, setA))
		sel := g.measure(da, setA, db, setB)
		if sel <= 0 || math.Abs(sel-band)/band > bandTolerance {
			continue
		}
		q := g.build(da, setA, db, setB, sel)
		if _, dup := g.seen[q.SQL]; dup {
			continue
		}
		g.seen[q.SQL] = struct{}{}
		return q
	}
}

// pickValues returns a random set of d's value codes whose frequencies
// sum to roughly want (always at least one value, never all of them
// unless want >= 1).
func (g *queryGen) pickValues(d *genDim, want float64) []int32 {
	perm := g.rng.Perm(len(d.dict))
	var set []int32
	total := 0.0
	for _, c := range perm {
		f := d.freq[c]
		if len(set) > 0 && math.Abs(total+f-want) > math.Abs(total-want) {
			continue
		}
		set = append(set, int32(c))
		total += f
		if total >= want {
			break
		}
	}
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	return set
}

func sumFreq(d *genDim, set []int32) float64 {
	s := 0.0
	for _, c := range set {
		s += d.freq[c]
	}
	return s
}

// measure counts the rows matching (a IN setA AND b IN setB).
func (g *queryGen) measure(da *genDim, setA []int32, db *genDim, setB []int32) float64 {
	inA, inB := make([]bool, len(da.dict)), make([]bool, len(db.dict))
	for _, c := range setA {
		inA[c] = true
	}
	for _, c := range setB {
		inB[c] = true
	}
	n := 0
	for r := 0; r < g.rows; r++ {
		ca, cb := da.codes[r], db.codes[r]
		if ca >= 0 && cb >= 0 && inA[ca] && inB[cb] {
			n++
		}
	}
	return float64(n) / float64(g.rows)
}

func (g *queryGen) build(da *genDim, setA []int32, db *genDim, setB []int32, sel float64) genQuery {
	var conds []string
	var preds []seedb.Predicate
	for _, side := range []struct {
		d   *genDim
		set []int32
	}{{da, setA}, {db, setB}} {
		if len(side.set) == len(side.d.dict) {
			continue // every value allowed: no condition
		}
		vals := make([]seedb.Value, len(side.set))
		lits := make([]string, len(side.set))
		for i, c := range side.set {
			vals[i] = seedb.String(side.d.dict[c])
			lits[i] = "'" + strings.ReplaceAll(side.d.dict[c], "'", "''") + "'"
		}
		if len(vals) == 1 {
			conds = append(conds, side.d.name+" = "+lits[0])
			preds = append(preds, seedb.Eq(side.d.name, vals[0]))
		} else {
			conds = append(conds, side.d.name+" IN ("+strings.Join(lits, ", ")+")")
			preds = append(preds, seedb.In(side.d.name, vals...))
		}
	}
	q := genQuery{SQL: "SELECT * FROM " + g.table, Selectivity: sel}
	if len(preds) > 0 {
		q.SQL += " WHERE " + strings.Join(conds, " AND ")
		q.Predicate = seedb.And(preds...)
	}
	return q
}
