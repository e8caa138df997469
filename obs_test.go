package seedb

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// Observability is observation-only: with metrics + tracing installed
// (the default under Serve) every recommendation must be byte-identical
// to a run with observability disabled — across placed fleet sizes and
// with phased execution, the two paths where instrumentation sits
// closest to the result math. This pins the obs seam the way
// progress_test.go pins the ProgressListener seam.
func TestObservabilityByteIdentity(t *testing.T) {
	ctx := context.Background()
	for _, phases := range []int{0, 3} {
		for _, n := range append([]int{0}, goldenFleetSizes...) {
			run := func(disable bool) (string, *DB) {
				opts := goldenOptions("emd")
				opts.Phases = phases
				var db *DB
				var b *ClusterBackend
				if n > 0 {
					db, b = placedGoldenDB(t, 2, n)
				} else {
					db = goldenDB(t)
				}
				svc := db.Serve(ServeConfig{DisableObservability: disable})
				sess := svc.NewSession(opts)
				res, err := sess.RecommendSQL(ctx, goldenQueries[0], &opts)
				if err != nil {
					t.Fatalf("phases=%d workers=%d disable=%v: %v", phases, n, disable, err)
				}
				if b != nil {
					assertScattered(t, fmt.Sprintf("phases=%d workers=%d disable=%v", phases, n, disable), b)
				}
				return renderGolden(res), db
			}
			on, obsDB := run(false)
			off, plainDB := run(true)
			if on != off {
				t.Fatalf("phases=%d workers=%d: result differs with observability on:\non:\n%s\noff:\n%s",
					phases, n, on, off)
			}
			// The enabled side must actually have observed the run (this
			// is a pin, not a no-op test), and the disabled side must
			// have recorded nothing.
			if obsDB.Observability().Traces.Len() == 0 {
				t.Fatalf("phases=%d workers=%d: observability on but no trace completed", phases, n)
			}
			if plainDB.Observability().Traces.Len() != 0 {
				t.Fatalf("phases=%d workers=%d: DisableObservability still recorded traces", phases, n)
			}
		}
	}
}

// A placed streaming run's trace must tell the whole story: the
// scheduler queue wait, the run itself, cache lookups, per-worker
// exchanges, and per-phase segments — with every span inside the
// trace's wall time and the queue+run account summing consistently
// with it.
func TestTraceSpansForShardedStreamingRun(t *testing.T) {
	ctx := context.Background()
	db, b := placedGoldenDB(t, 2, 4)
	svc := db.Serve(ServeConfig{})
	opts := goldenOptions("emd")
	opts.Phases = 3
	sess := svc.NewSession(opts)

	st, err := sess.RecommendSQLStream(ctx, goldenQueries[0], &opts)
	if err != nil {
		t.Fatal(err)
	}
	id := st.TraceID()
	if id == "" {
		t.Fatal("stream carries no trace ID with observability on")
	}
	sub := st.Subscribe(0)
	for ev := range sub.Events() {
		if ev.Err != nil {
			t.Fatal(ev.Err)
		}
	}

	// The trace is finished into the ring before the stream's terminal
	// event, so it must be fetchable now.
	dump, ok := db.Observability().Traces.Get(id)
	if !ok {
		t.Fatalf("no completed trace %q in the ring", id)
	}
	if dump.WallMillis <= 0 {
		t.Fatalf("trace wall time not positive: %v", dump.WallMillis)
	}
	counts := map[string]int{}
	var queueMillis, runMillis float64
	const slack = 1.0 // ms: span ends are stamped a hair before the trace's
	for _, sp := range dump.Spans {
		counts[sp.Name]++
		if sp.StartMillis < -slack || sp.DurMillis < 0 || sp.StartMillis+sp.DurMillis > dump.WallMillis+slack {
			t.Errorf("span %q [%0.3f +%0.3f] outside trace wall %0.3f ms",
				sp.Name, sp.StartMillis, sp.DurMillis, dump.WallMillis)
		}
		switch sp.Name {
		case "shard-exec":
			if !strings.HasPrefix(sp.Attrs["shard"], "member-") {
				t.Errorf("shard-exec span not on a member: %+v", sp)
			}
		case "scheduler-queue":
			queueMillis += sp.DurMillis
		case "run":
			runMillis += sp.DurMillis
		}
	}
	for _, want := range []string{"scheduler-queue", "run", "cache-lookup", "shard-exec", "phase"} {
		if counts[want] == 0 {
			t.Errorf("trace lacks a %q span; span counts: %v", want, counts)
		}
	}
	if counts["phase"] != opts.Phases {
		t.Errorf("want %d phase spans, got %d", opts.Phases, counts["phase"])
	}
	// A placed exchange is one span per worker per scan, and every phase
	// scans its own window.
	if counts["shard-exec"] < opts.Phases {
		t.Errorf("want at least one shard-exec span per phase (%d), got %d", opts.Phases, counts["shard-exec"])
	}
	assertScattered(t, "streaming run", b)
	if counts["scheduler-queue"] != 1 || counts["run"] != 1 {
		t.Errorf("want exactly one scheduler-queue and one run span, got %d and %d",
			counts["scheduler-queue"], counts["run"])
	}
	// Sum consistency: the queue wait plus the pipeline run is the
	// trace's account of the wall time.
	if total := queueMillis + runMillis; total > dump.WallMillis+slack {
		t.Errorf("queue (%0.3f) + run (%0.3f) = %0.3f ms exceeds wall %0.3f ms",
			queueMillis, runMillis, total, dump.WallMillis)
	}
}
