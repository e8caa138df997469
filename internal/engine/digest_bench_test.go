package engine_test

import (
	"runtime"
	"testing"

	"seedb/internal/datagen"
	"seedb/internal/engine"
)

// BenchmarkChunkDigests digests every sealed cell of a fresh 150k-row
// Superstore table (append_query's table) from a cold memo, on
// GOMAXPROCS goroutines as a store-backed scan at default parallelism
// does: what content addressing costs a table's first stored query.
func BenchmarkChunkDigests(b *testing.B) {
	t := datagen.Superstore("orders", 150_000, 1)
	cells, ops := t.SealedChunks(), 0
	for b.Loop() {
		if n := engine.DigestColdCells(t, runtime.GOMAXPROCS(0)); n != cells {
			b.Fatalf("digested %d cells, want %d", n, cells)
		}
		ops++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops*cells), "ns/cell")
}
