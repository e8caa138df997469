package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"seedb"
)

// runConfig fixes everything about one run except what the product does.
// The sizes are frozen per scale: both sides of a comparison run the same
// ones. ISSUE 11 sized the workloads for 30–45 s windows on 1M/500k/200k
// rows; the benchmark contract caps 92 runs at 3420 s in total, so the
// tables are scaled down until 7–19 set-ups and six window slices fit into
// the 30 s a run measures for.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	outDir   string // trace files
	tmpDir   string // durable stores; removed at exit

	rows      int
	setupReps int           // set-ups per run: setup_s and first_op_s are taken over them
	warmOps   int           // untimed cycles before the window: at least this many,
	warm      time.Duration // and at least this long (heaps and stores reach their size)
	fresh     bool          // every slice of the window runs on an instance of its own
	tinyOps   int           // tiny scale: the window is this many cycles, not seconds
	verifyOps int           // ops re-checked against the oracle after the window
}

func newConfig(workload string, seed uint64, seconds float64, trace, tiny bool) (runConfig, error) {
	c := runConfig{workload: workload, seed: seed, seconds: seconds, trace: trace, tiny: tiny,
		warmOps: 6, warm: time.Second, verifyOps: 6}
	// A set-up plus first query takes 1.6 s on cold_scan and 0.3–0.6 s on
	// the others, where a single one is correspondingly noisier (±10 %):
	// the cheaper it is, the more of them a run takes.
	switch workload {
	case wCold:
		c.rows, c.setupReps = 200_000, 7
	case wServe:
		c.rows, c.setupReps = 100_000, 19
		c.warm = 2 * time.Second // the partial store fills in 12 queries, the pool in 16
	case wAppend:
		c.rows, c.setupReps = 150_000, 13
		// The table grows with every cycle, so each slice starts over on a
		// fresh instance: six cycles give each fixed query its first scan.
		c.fresh, c.warm = true, 0
	case wCluster:
		c.rows, c.setupReps = 50_000, 13
		// Two workers' partial stores and a 2 GB heap take ~5 s to settle;
		// the quietest stretch lies after that anyway, so 2 s of it are
		// warm-up and the rest is window.
		c.warm = 2 * time.Second
	default:
		return c, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames(), ", "))
	}
	if trace {
		c.setupReps = 1 // set-up time is an end-to-end metric; the traced run does not report it
	}
	if tiny {
		c.rows, c.setupReps, c.warmOps, c.tinyOps, c.verifyOps = 5000, 2, 1, 2, 2
	}
	return c, nil
}

// workload is one benchmark scenario. The driver calls, in order: setup,
// first, then run for the warm-up, for each slice of the timed window and
// (traced runs) for the traced pass, then verify, layers (traced runs) and
// close. Between slices it sets up further instances to time setup and
// first again.
type workload interface {
	// setup builds the system under test from the seed.
	setup() error
	// first runs one query against the fresh state.
	first() error
	// run drives the workload's closed-loop clients until stop reports
	// true; stop is polled between a client's cycles with the number of
	// cycles the main client has completed.
	run(stop func(cycles int) bool)
	// trace switches the seam wrappers on (tr != nil) or off.
	trace(tr *tracer)
	// verify re-checks recorded answers against the workload's oracle.
	verify()
	// layers adds the workload's per-layer metrics (traced runs only).
	layers(m metrics, spans []*span)
	// close stops servers and releases the tables.
	close()
}

func workloadNames() []string { return []string{wCold, wServe, wAppend, wCluster} }

func newWorkload(cfg runConfig, rec *recorder) workload {
	b := base{cfg: cfg, rec: rec}
	switch cfg.workload {
	case wCold:
		return &coldScan{base: b}
	case wServe:
		return &exploreServe{base: b}
	case wAppend:
		return &appendQuery{base: b}
	default:
		return &clusterScatter{base: b}
	}
}

// base is what every workload shares: its configuration, the recorder,
// the tracer of the traced pass (nil otherwise) and the running totals of
// Result.Stats the traced pass reports per op.
type base struct {
	cfg runConfig
	rec *recorder
	tr  *tracer
	seq int

	statOps    int
	candidates int
	executed   int
	scans      int64
	rowsRead   int64
}

// checkedOp is an answer kept for the oracle.
type checkedOp struct {
	q      genQuery
	digest string
}

// libOp runs one library recommendation as an operation: a root span, a
// core span around the product call (so core's self time is the call
// minus whatever the wrapped seams below it record), the latency sample,
// and the canonical digest of the answer ("" when the call failed).
func (b *base) libOp(class string, call func(ctx context.Context) (*seedb.Result, error)) string {
	b.seq++
	root, ctx := b.tr.root(context.Background(), fmt.Sprintf("%s/%d", b.cfg.workload, b.seq), class)
	sp, cctx := b.tr.start(ctx, "core.recommend", layerCore)
	t0 := time.Now()
	res, err := call(cctx)
	d := time.Since(t0)
	sp.end()
	root.end()
	if err == nil && len(res.Recommendations) == 0 {
		err = fmt.Errorf("no recommendations")
	}
	b.rec.op(class, d, err)
	if err != nil {
		return ""
	}
	if b.tr != nil {
		b.statOps++
		b.candidates += res.Stats.CandidateViews
		b.executed += res.Stats.ExecutedViews
		b.scans += res.Stats.TableScans
		b.rowsRead += res.Stats.RowsRead
	}
	return digestResult(res)
}

// coreCounters reports the Result.Stats totals per traced op.
func (b *base) coreCounters(m metrics, backendCalls int64) {
	if b.statOps == 0 {
		return
	}
	n := float64(b.statOps)
	m["core.backend_calls"] = float64(backendCalls) / n
	m["core.views_candidate"] = float64(b.candidates) / n
	m["core.views_executed"] = float64(b.executed) / n
	m["core.table_scans"] = float64(b.scans) / n
	m["core.rows_read"] = float64(b.rowsRead) / n
}

// sampleEvery picks about want evenly spaced indices out of n.
func sampleEvery(n, want int) []int {
	if n == 0 || want <= 0 {
		return nil
	}
	step := max(n/want, 1)
	var idx []int
	for i := step / 2; i < n && len(idx) < want; i += step {
		idx = append(idx, i)
	}
	return idx
}

func runFor(w workload, cfg runConfig, d time.Duration) int {
	deadline := time.Now().Add(d)
	cycles := 0
	w.run(func(n int) bool {
		cycles = n
		if cfg.tiny {
			return n >= cfg.tinyOps
		}
		return !time.Now().Before(deadline)
	})
	return cycles
}

// Op classes.
const (
	classQuery     = "query"
	classCompanion = "companion"
)

// Phases of a run; latency samples are kept per phase (the window's
// slices are phaseWindow+"0", "1", ...).
const (
	phaseWarm   = "warm"
	phaseWindow = "window"
	phaseTraced = "traced"
)

// recorder collects what the clients observe. Every operation after
// set-up counts as attempted; only the current phase's samples feed the
// metrics of that phase.
type recorder struct {
	mu        sync.Mutex
	phase     string
	lat       map[string][]float64 // phase+"/"+class -> ms
	attempted int
	failed    int
	problems  []string
}

func newRecorder() *recorder { return &recorder{phase: phaseWarm, lat: map[string][]float64{}} }

func (r *recorder) setPhase(p string) {
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
}

// op records one operation: its class, its latency and whether it
// succeeded (a wrong answer, an error, a non-200 or a shed request all
// arrive here as err).
func (r *recorder) op(class string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(class + ": " + err.Error())
		return
	}
	r.lat[r.phase+"/"+class] = append(r.lat[r.phase+"/"+class], ms(d))
}

// fail marks one already-counted operation as failed after the fact (the
// oracle disagreed) or records a broken harness assertion.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	r.failLocked(fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *recorder) failLocked(msg string) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, msg)
	}
}

func (r *recorder) samples(phase, class string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lat[phase+"/"+class]
}

// runResult is what one process reports.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Samples holds the window's latencies (ms) per op class and the
	// per-set-up times (s); they go into -out files, not the result line.
	Samples  map[string][]float64 `json:"-"`
	problems []string
}

// slices is how many parts the timed window is cut into; the run's
// set-ups happen between them, so that they are spread over the run.
//
// A shared host has stretches of foreign load that last seconds to
// minutes and slow everything by a tenth to a half; a median over the
// whole window inherits them. Foreign load only ever adds time, so the
// part of a run that measured the program is its quiet part, and every
// timing metric is taken from that: a latency metric is the median of the
// quietest stretch of the window (quietStretch), and setup_s and
// first_op_s, which have one sample per set-up, are the second smallest
// of the run's set-ups (quietSample). A change to the product moves every
// stretch and every set-up; a burst moves only some.
//
// The stretches must be comparable for that to hold: a workload whose
// state drifts (append_query's table grows) runs every slice on a fresh
// instance (runConfig.fresh), so that the window holds six stretches of
// each state instead of one.
const slices = 6

// sliceWindow names the phase of untraced slice i.
func sliceWindow(i int) string { return fmt.Sprintf("%s%d", phaseWindow, i) }

// window returns a class's samples from slices 0..n-1 in time order.
func (r *recorder) window(class string, n int) []float64 {
	var all []float64
	for i := 0; i < n; i++ {
		all = append(all, r.samples(sliceWindow(i), class)...)
	}
	return all
}

// quietStretch is the lowest median over any stretch of consecutive
// samples a twentieth of v long, and at least 5: about a second of the
// window (all of v when it is shorter than that; 0 when it is empty).
func quietStretch(v []float64) float64 {
	k := min(max(len(v)/20, 5), len(v))
	best := 0.0
	for i := 0; i+k <= len(v); i++ {
		if m := median(v[i : i+k]); best == 0 || m < best {
			best = m
		}
	}
	return best
}

// quietSample is the second smallest of v (the smallest could be a fluke;
// two quiet set-ups in a run are enough); the only one when there is one.
func quietSample(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return s[min(1, len(s)-1)]
}

// execute runs one workload once in this process. Everything it times —
// set-ups, first ops, warm-ups and the window's slices — fits into
// cfg.seconds; the oracle and (traced runs) the direct layer calls follow.
func execute(cfg runConfig) (*runResult, error) {
	rec := newRecorder()
	m := metrics{}
	start := time.Now()

	// probe sets the workload up from scratch and runs its first query.
	var setups, firsts []float64
	probe := func() (workload, error) {
		w := newWorkload(cfg, rec)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		t0 = time.Now()
		err := w.first()
		d := time.Since(t0)
		rec.op("first", d, err)
		firsts = append(firsts, d.Seconds())
		return w, nil
	}
	warmUp := func(w workload) {
		rec.setPhase(phaseWarm)
		until := time.Now().Add(cfg.warm)
		w.run(func(n int) bool { return n >= cfg.warmOps && (cfg.tiny || !time.Now().Before(until)) })
	}
	w, err := probe() // the instance the window (or its first slice) runs on
	if err != nil {
		return nil, err
	}
	defer func() { w.close() }()
	probeCost := time.Since(start) // the first one is the dearest: the process is cold
	warmUp(w)

	window := time.Duration(cfg.seconds * float64(time.Second))
	var ms0, ms1 runtime.MemStats
	var cycles int
	var spans []*span
	nSlices := slices
	if !cfg.trace {
		// What the remaining set-ups and warm-ups will take comes out of the
		// window: each slice gets its share of what is then left, at the
		// cost per set-up seen so far (with its warm-up where every slice has
		// one, and with the collection of what it leaves behind).
		deadline := start.Add(window)
		apart, probes := time.Since(start), 1 // time outside the slices, set-ups in it
		if !cfg.fresh {
			apart = probeCost
		}
		for i := 0; i < slices; i++ {
			todo := time.Duration(cfg.setupReps-len(setups)) * apart / time.Duration(probes)
			slice := max((time.Until(deadline)-todo)/time.Duration(slices-i), window/(8*slices))
			rec.setPhase(sliceWindow(i))
			if i == 0 {
				runtime.ReadMemStats(&ms0)
			}
			n := runFor(w, cfg, slice)
			if i == 0 {
				cycles = n
				runtime.ReadMemStats(&ms1)
			}
			t0 := time.Now()
			rec.setPhase("probe")
			next := cfg.fresh && i < slices-1 // the last of these set-ups runs the next slice
			if next {
				w.close()
			}
			want := 1 + (i+1)*(cfg.setupReps-1)/slices
			if next {
				want = max(want, len(setups)+1)
			}
			for ; len(setups) < want; probes++ {
				p, err := probe()
				if err != nil {
					return nil, err
				}
				if next && len(setups) == want {
					w = p
				} else {
					p.close()
				}
				runtime.GC()
			}
			if next {
				warmUp(w)
			}
			apart += time.Since(t0)
		}
	} else {
		// A traced run spends two thirds of the window in the traced pass,
		// between two untraced sixths: tables grow and caches fill as a run
		// proceeds, and the sandwich keeps that drift out of the
		// traced/untraced comparison.
		nSlices = 2
		rec.setPhase(sliceWindow(0))
		runtime.ReadMemStats(&ms0)
		cycles = runFor(w, cfg, window/6)
		runtime.ReadMemStats(&ms1)
		tr := newTracer()
		w.trace(tr)
		rec.setPhase(phaseTraced)
		runFor(w, cfg, window*2/3)
		w.trace(nil)
		spans = tr.finish()
		rec.setPhase(sliceWindow(1))
		runFor(w, cfg, window/6)
	}
	m["setup_s"], m["first_op_s"] = quietSample(setups), quietSample(firsts)
	q, c := rec.window(classQuery, nSlices), rec.window(classCompanion, nSlices)
	m["query_p50_ms"], m["companion_p50_ms"] = quietStretch(q), quietStretch(c)
	rec.setPhase("verify")
	w.verify()

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		w.layers(m, spans)
		tq, tc := rec.samples(phaseTraced, classQuery), rec.samples(phaseTraced, classCompanion)
		if p50 := median(q); p50 > 0 && len(tq) > 0 {
			m["proc.trace_overhead_frac"] = median(tq)/p50 - 1
		}
		m["client.query_p90_ms"] = percentile(append(tq, q...), 90)
		m["client.companion_p90_ms"] = percentile(append(tc, c...), 90)
		m["proc.trace_uncovered_frac"] = uncoveredFrac(spans)
		if (cfg.workload == wCold || cfg.workload == wAppend) && m["proc.trace_uncovered_frac"] > 0.05 {
			rec.fail("traced layer self times cover only %.1f%% of op wall", 100*(1-m["proc.trace_uncovered_frac"]))
		}
		if cycles > 0 {
			m["proc.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(cycles)
			m["proc.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(cycles)
		}
		var msEnd runtime.MemStats
		runtime.ReadMemStats(&msEnd)
		m["proc.gc_cpu_frac"] = msEnd.GCCPUFraction
		m["proc.peak_rss_mb"] = peakRSSMB()
		if err := writeTrace(filepath.Join(cfg.outDir, cfg.workload+".trace.json"), spans); err != nil {
			return nil, err
		}
	}

	out, err := m.export(defs)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		if !cfg.trace && out[d.Name].Value <= 0 {
			rec.fail("end-to-end metric %s has no samples", d.Name)
		}
	}
	res := &runResult{Attempted: rec.attempted, Failed: rec.failed, Metrics: out, problems: rec.problems,
		Samples: map[string][]float64{"setup_s": setups, "first_op_s": firsts, classQuery: q, classCompanion: c}}
	res.Correct = res.Failed == 0
	return res, nil
}

// uncoveredFrac is the share of traced op wall time that lies inside no
// product-layer span: the harness's own self time.
func uncoveredFrac(spans []*span) float64 {
	var wall, uncovered time.Duration
	for _, b := range breakdowns(spans) {
		wall += b.wall
		uncovered += b.self[layerHarness]
	}
	if wall == 0 {
		return 0
	}
	return float64(uncovered) / float64(wall)
}

func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
