package stats

import (
	"testing"

	"seedb/internal/datagen"
	"seedb/internal/engine"
)

// benchTable is the 200k-row default synthetic table (ten string
// dimensions beside five all-distinct float measures) and its string
// dimensions.
func benchTable(b *testing.B) (*engine.Table, []string) {
	b.Helper()
	tb, _, err := datagen.Synthetic(datagen.DefaultSynthetic("syn", 200_000, 42))
	if err != nil {
		b.Fatal(err)
	}
	var dims []string
	for _, def := range tb.Schema() {
		if def.Type == engine.TypeString {
			dims = append(dims, def.Name)
		}
	}
	return tb, dims
}

// BenchmarkCollectorCold measures what a table's first query pays
// before its scan: a fresh collector's Stats and the correlation
// clustering of the string dimensions.
func BenchmarkCollectorCold(b *testing.B) {
	tb, dims := benchTable(b)
	b.ReportAllocs()
	for b.Loop() {
		c := NewCollector()
		c.Stats(tb)
		if _, err := c.CorrelationClusters(tb, dims, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorExtend measures what a query pays after a 600-row
// append to an already-summarized table: Stats and the clustering
// extended by the batch alone.
func BenchmarkCollectorExtend(b *testing.B) {
	tb, dims := benchTable(b)
	batch := make([][]engine.Value, 600)
	for i := range batch {
		batch[i] = tb.Row(i * 331 % tb.NumRows())
	}
	c := NewCollector()
	c.Stats(tb)
	if _, err := c.CorrelationClusters(tb, dims, 0.95); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := tb.Append(batch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		c.Stats(tb)
		if _, err := c.CorrelationClusters(tb, dims, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}
