package seedb

import (
	"context"
	"sync"
	"testing"

	"seedb/internal/engine"
)

// capturingBackend records the grouping sets of every shared scan.
type capturingBackend struct {
	Backend
	mu    sync.Mutex
	scans []capturedScan
}

type capturedScan struct {
	table string
	gsets []engine.GroupingSet
}

func (b *capturingBackend) RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	b.mu.Lock()
	b.scans = append(b.scans, capturedScan{q.Table, gsets})
	b.mu.Unlock()
	return b.Backend.RunSharedScan(ctx, q, gsets)
}

// Every grouping set of the shared scans DefaultOptions plans — string
// dimensions and binned continuous ones alike — must bind the engine's
// dense group layout: the hash layout is for genuinely ineligible
// shapes, and a default plan sliding back onto it is a silent several-
// fold scan slowdown that no result test would notice. That holds for
// both halves of every split set too: under the partial store each
// dimension's comparison accumulators and its target accumulators are
// grouped by plans of their own, and the target-count set stays whole.
func TestDefaultPlanAllDense(t *testing.T) {
	db := goldenDB(t)
	be := &capturingBackend{Backend: db.Backend()}
	db.SetBackend(be)
	for _, query := range goldenQueries {
		if _, err := db.RecommendSQL(context.Background(), query, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if len(be.scans) == 0 {
		t.Fatal("DefaultOptions issued no shared scan")
	}
	binned, counts := 0, 0
	for _, scan := range be.scans {
		layouts, err := db.Engine().Executor().Layouts(scan.table, scan.gsets)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range layouts {
			if !l.Dense {
				t.Errorf("table %s: grouping set %v (bin widths %v) binds the hash layout",
					scan.table, scan.gsets[i].By, scan.gsets[i].BinWidths)
			}
			binned += len(scan.gsets[i].BinWidths)
			if len(scan.gsets[i].By) == 0 {
				counts++
			}
			if want := len(scan.gsets[i].By) > 0; l.Split != want {
				t.Errorf("table %s: grouping set %v split = %v, want %v", scan.table, scan.gsets[i].By, l.Split, want)
			}
		}
	}
	if binned == 0 {
		t.Fatal("no binned dimension was planned; the test no longer covers binned keys")
	}
	if counts != len(goldenQueries) {
		t.Fatalf("%d zero-key target-count sets over %d recommendations, want one each", counts, len(goldenQueries))
	}
}
