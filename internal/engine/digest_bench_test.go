package engine_test

import (
	"fmt"
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

// BenchmarkContentHashAfterAppend hashes a 150k-row Superstore table
// (append_query's table) after each 600-row append, memos warm from
// the hash before it: what a verified append costs the coordinator and
// every owner. Only the hash is timed; every 100 appends the table is
// replaced by a fresh hashed copy, so it stays near 150k rows.
func BenchmarkContentHashAfterAppend(b *testing.B) {
	base := datagen.Superstore("orders", 150_000, 1)
	delta := datagen.Superstore("delta", 600, 2)
	var t *engine.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%100 == 0 {
			t = base.Clone("orders")
			if _, err := t.ContentHash(); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := t.AppendTable(delta); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := t.ContentHash(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractRange copies every row of a Superstore table into a
// table of its own, as a cluster placement ship, re-cut or placement
// checkpoint does with its rows: what StringColumn.gather's one
// dictionary lookup per distinct value (not per row) is for.
func BenchmarkExtractRange(b *testing.B) {
	for _, rows := range []int{50_000, 150_000} {
		t := datagen.Superstore("orders", rows, 1)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			for b.Loop() {
				if _, err := t.ExtractRange("orders__p0", 0, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
