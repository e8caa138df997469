package viz

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// f1Cases are the %.1f kernel's edges: exact ties (x.25, x.75 are the
// only binary values whose tenths digit is a tie), signed zeros,
// subnormals, non-finite values and the neighbourhood of both the
// kernel's bound (2^53/10) and Value.Format's (1e15).
var f1Cases = []float64{
	0, math.Copysign(0, -1), 0.25, 0.75, 2.5, 2.25, 2.75, -0.25, -0.75, -2.25,
	-0.05, 0.05, 0.15, 0.35, 0.45, 0.95, 1.05, 9.95, 99.95, -99.95,
	0.04999999999999999, 0.05000000000000001, 1e-300, -1e-300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x0010000000000000),
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	f1Exact, -f1Exact, math.Nextafter(f1Exact, 0), math.Nextafter(-f1Exact, 0),
	math.Nextafter(f1Exact, math.Inf(1)), 1e15, -1e15, math.Nextafter(1e15, 0),
	123456789012.25, 123456789012.75, 900719925474099.2, 900719925474099.25,
	1 << 49, (1 << 49) + 0.25, (1 << 49) + 0.75, 299.95, 40.05, 187.45,
}

func TestAppendF1MatchesFmt(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := string(appendF1(nil, v)), fmt.Sprintf("%.1f", v); got != want {
			t.Fatalf("appendF1(%v) [bits %#x] = %q, fmt %%.1f = %q", v, math.Float64bits(v), got, want)
		}
	}
	for _, v := range f1Cases {
		check(v)
		check(-v)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		check(math.Float64frombits(r.Uint64()))                          // every exponent
		check((r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(18)-3))) // chart scales
		check(float64(r.Intn(1<<20)) / 4)                                // quarters: exact ties
	}
}

// randSpec builds a chart spec from r: values drawn from chart-like
// scales, exact ties, extremes and non-finite values; keys and names
// with every character html escaping touches.
func randSpec(r *rand.Rand, extraKey string) Spec {
	keys := make([]string, r.Intn(30))
	pieces := []string{"a", "<b>", "&", "'", `"`, "Ünïcode", "NULL", "1.0", "a very long label indeed", extraKey}
	for i := range keys {
		for j := r.Intn(3); j >= 0; j-- {
			keys[i] += pieces[r.Intn(len(pieces))]
		}
	}
	value := func() float64 {
		switch r.Intn(10) {
		case 0:
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64}[r.Intn(6)]
		case 1:
			return math.Float64frombits(r.Uint64())
		case 2:
			return float64(r.Intn(4000)-1000) / 4
		default:
			return (r.Float64() - 0.2) * math.Pow(10, float64(r.Intn(12)-4))
		}
	}
	s := Spec{Title: "SUM(sales) BY " + extraKey, Type: ChartType(r.Intn(3)), Keys: keys}
	if r.Intn(2) == 0 {
		s.Subtitle = fmt.Sprintf("utility %.4f", r.Float64())
	}
	for n := r.Intn(5); n > 0; n-- {
		vals := make([]float64, r.Intn(len(keys)+1)) // lines index Keys by value
		for i := range vals {
			vals[i] = value()
		}
		s.Series = append(s.Series, Series{Name: pieces[r.Intn(len(pieces))], Values: vals})
	}
	return s
}

func TestSVGMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		s := randSpec(r, "k")
		w, h := r.Intn(900), r.Intn(700)
		if got, want := s.SVG(w, h), svgFmt(s, w, h); got != want {
			t.Fatalf("spec %d (%dx%d) differs from the fmt renderer:\n got %s\nwant %s", i, w, h, got, want)
		}
	}
	for _, norm := range []bool{false, true} {
		s := sampleSpec(norm)
		if got, want := s.SVG(430, 300), svgFmt(s, 430, 300); got != want {
			t.Fatalf("sample spec differs:\n got %s\nwant %s", got, want)
		}
	}
}

func FuzzSVGMatchesFmt(f *testing.F) {
	f.Add(int64(1), 430, 300, "Furniture")
	f.Add(int64(2), 160, 120, "<&'\">")
	f.Add(int64(3), 0, 0, "")
	f.Fuzz(func(t *testing.T, seed int64, w, h int, key string) {
		w, h = w%2000, h%2000
		s := randSpec(rand.New(rand.NewSource(seed)), key)
		if got, want := s.SVG(w, h), svgFmt(s, w, h); got != want {
			t.Fatalf("differs from the fmt renderer:\n got %s\nwant %s", got, want)
		}
	})
}
