// Command tracebench measures the cost of always-on request tracing (for
// BENCH_trace.json). The workloads run twice per round over one shared
// IoT dataset:
//
//   - type1/type3 — collaborative queries through the DB-UDF strategy
//     with the fallback ladder (ExecuteWithFallback owns the trace). This
//     is the obsbench paired workload — the paper's subject — and the
//     population the 2% relative budget gates on.
//   - sql — a sub-100µs join + aggregate through the engine's plain
//     statement path (recordQuery opens the statement span, the executor
//     hangs per-operator spans under it). A deliberate stress line: the
//     fixed per-trace cost (~1.5µs: ID + arena + span tree + tail
//     decision) is a visible fraction of a query this small, so this
//     workload is gated on the ABSOLUTE per-query delta, not the ratio.
//
// Both configurations keep the previous PR's always-on observability armed
// (metrics registry + query-history ring + sys.* catalog); the only delta
// is the tail-sampled trace store:
//
//   - baseline — db.Traces/env.Traces nil: no trace is created, every
//     tracing call site pays only its nil check
//   - traced   — a seeded TraceStore with the default tail-sampling policy
//     (slow/error/fallback/breaker always kept, 1 in 64 otherwise): every
//     query builds its span tree, and Finish runs the sampling decision
//
// The run ends with self-checks: with retention forced (SampleEvery 1) a
// query's span tree must be reachable through SELECTs over sys.traces and
// sys.spans, and the trace must export as Chrome trace_event JSON.
//
//	tracebench
//	tracebench -json > BENCH_trace.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/colquery"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/obs"
	"repro/internal/strategies"
)

func main() {
	iters := flag.Int("iters", 25, "timed iterations per variant")
	scale := flag.Int("scale", 20, "IoT dataset scale unit (20 = paper default)")
	asJSON := flag.Bool("json", false, "emit the BENCH_trace.json document on stdout")
	flag.Parse()

	ds, err := iotdata.Generate(iotdata.Config{Scale: *scale, KeyframeSide: 8, Seed: 7, PatternCount: 6})
	if err != nil {
		fatalf("%v", err)
	}
	env := strategies.NewContext(ds)
	repo := modelrepo.NewRepository(8, 99)
	if err := env.BindDefaults(repo, 20); err != nil {
		fatalf("%v", err)
	}

	// The previous PR's observability stays armed in BOTH configs — the
	// measured delta is exactly the tracing path.
	db := ds.DB
	db.Metrics = obs.NewRegistry()
	db.History = obs.NewQueryHistory(256)
	env.Metrics, env.History = db.Metrics, db.History
	db.EnableSysCatalog()
	env.AttachObservability(db)

	traces := obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, Metrics: db.Metrics})
	arm := func() { db.Traces, env.Traces = traces, traces }
	disarm := func() { db.Traces, env.Traces = nil, nil }
	disarm()

	q1, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		fatalf("generating Type1: %v", err)
	}
	q3, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		fatalf("generating Type3: %v", err)
	}
	colRun := func(q *colquery.Query) func(batch int) error {
		return func(batch int) error {
			for i := 0; i < batch; i++ {
				if _, _, err := strategies.ExecuteWithFallback(context.Background(), env, &strategies.DBUDF{}, q); err != nil {
					return err
				}
			}
			return nil
		}
	}
	const sqlQuery = `SELECT F.patternID p, count(*) c, avg(F.meter) m
FROM fabric F, device D
WHERE F.transID = D.transID AND F.temperature > 20.0
GROUP BY F.patternID`

	// Each timed sample executes its query `batch` times, sized so each
	// sample's window is tens of milliseconds — the plain SQL query runs in
	// tens of microseconds, inside this container's scheduling-noise floor.
	workloads := []struct {
		name  string
		batch int
		run   func(batch int) error
	}{
		{"type1", 4, colRun(q1)},
		{"type3", 4, colRun(q3)},
		{"sql", 384, func(batch int) error {
			for i := 0; i < batch; i++ {
				if _, err := db.ExecContext(context.Background(), sqlQuery); err != nil {
					return err
				}
			}
			return nil
		}},
	}

	// Warmup: one pass of every (workload, config) cell.
	for _, w := range workloads {
		if err := w.run(w.batch); err != nil {
			fatalf("warmup %s: %v", w.name, err)
		}
		arm()
		err := w.run(w.batch)
		disarm()
		if err != nil {
			fatalf("warmup %s traced: %v", w.name, err)
		}
	}

	// Each cell is measured in process CPU time (getrusage), not wall
	// time: this container is a single shared core with multi-second
	// performance regimes, and wall-clock cells scatter 5-20% however
	// large the batch — CPU time doesn't charge the process for time it
	// wasn't running, and repeats to within fractions of a microsecond
	// per query. Rounds still interleave configs (alternating which runs
	// first) so any residual drift cancels, and a forced collection
	// before each cell keeps the previous cell's GC debt out of its bill.
	baseNs := map[string][]int64{}
	tracedNs := map[string][]int64{}
	timeCell := func(name string, run func(batch int) error, batch int, traced bool) {
		runtime.GC()
		if traced {
			arm()
		}
		start := cpuTime()
		err := run(batch)
		elapsed := (cpuTime() - start).Nanoseconds() / int64(batch)
		if traced {
			disarm()
		}
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if traced {
			tracedNs[name] = append(tracedNs[name], elapsed)
		} else {
			baseNs[name] = append(baseNs[name], elapsed)
		}
	}
	for i := 0; i < *iters; i++ {
		for _, w := range workloads {
			first := i%2 == 1
			timeCell(w.name, w.run, w.batch, first)
			timeCell(w.name, w.run, w.batch, !first)
		}
	}

	// Self-checks: force retention, run one query of each shape, and
	// demand the span trees answer SQL and export as Chrome JSON.
	keepAll := obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, SampleEvery: 1, Metrics: db.Metrics})
	db.Traces, env.Traces = keepAll, keepAll
	defer func() { db.Traces, env.Traces = nil, nil }()
	if _, err := db.ExecContext(context.Background(), sqlQuery); err != nil {
		fatalf("self-check query: %v", err)
	}
	if _, _, err := strategies.ExecuteWithFallback(context.Background(), env, &strategies.DBUDF{}, q1); err != nil {
		fatalf("self-check colquery: %v", err)
	}
	sel, err := db.Query(`SELECT count(*) c FROM sys.traces WHERE spans >= 1`)
	if err != nil {
		fatalf("sys.traces self-check: %v", err)
	}
	if sel.Cols[0].Get(0).I == 0 {
		fatalf("sys.traces self-check: no traces retained with SampleEvery=1")
	}
	sel, err = db.Query(`SELECT count(*) c FROM sys.spans WHERE trace_id <> ''`)
	if err != nil {
		fatalf("sys.spans self-check: %v", err)
	}
	if sel.Cols[0].Get(0).I == 0 {
		fatalf("sys.spans self-check: no spans visible")
	}
	snap := keepAll.Snapshot()
	var chrome bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, snap[len(snap)-1]); err != nil {
		fatalf("chrome export self-check: %v", err)
	}
	if !strings.Contains(chrome.String(), "trace_id") {
		fatalf("chrome export self-check: no trace_id in output")
	}
	if err := db.Metrics.Check(); err != nil {
		fatalf("registry self-check: %v", err)
	}

	// Gating: the 2% relative budget applies to the collaborative
	// workloads (the obsbench paired workload, the paper's subject). The
	// sql microquery pays the same fixed per-trace cost on a ~60µs query,
	// so it is gated on the absolute per-query delta instead — a ratio
	// gate there would only measure the query's smallness.
	const sqlBudgetNs = 5000
	results := map[string]any{}
	summary := map[string]any{"budget_pct": 2.0, "sql_budget_ns": sqlBudgetNs}
	worst := -100.0
	var parts []string
	var sqlDelta int64
	for _, w := range workloads {
		pct := round2(overheadPct(baseNs[w.name], tracedNs[w.name]))
		results[w.name+"_baseline"] = baseNs[w.name]
		results[w.name+"_traced"] = tracedNs[w.name]
		summary[w.name+"_overhead_pct"] = pct
		if w.name == "sql" {
			sqlDelta = int64(median(tracedNs[w.name]) - median(baseNs[w.name]))
			summary["sql_delta_ns_per_query"] = sqlDelta
			parts = append(parts, fmt.Sprintf("%s %+dns (%+.2f%%)", w.name, sqlDelta, pct))
		} else {
			if pct > worst {
				worst = pct
			}
			parts = append(parts, fmt.Sprintf("%s %+.2f%%", w.name, pct))
		}
		if !*asJSON {
			fmt.Printf("%-9s baseline %-12s traced %-12s cpu/query (%+.2f%%)\n", w.name,
				time.Duration(mean(baseNs[w.name])), time.Duration(mean(tracedNs[w.name])), pct)
		}
	}
	within := "within"
	if worst > 2.0 || sqlDelta > sqlBudgetNs {
		within = "OVER"
	}
	verdict := fmt.Sprintf(
		"always-on tracing (span trees + tail sampler, default 1-in-64 retention) costs %s on top of the armed observability baseline; collaborative worst case %+.2f%% and sql stress delta %+dns/query, %s budget (2%% relative on the collaborative workloads, %dns absolute on the microquery); sys.traces/sys.spans SQL and Chrome export self-checks passed",
		strings.Join(parts, ", "), worst, sqlDelta, within, sqlBudgetNs)
	summary["worst_overhead_pct"] = round2(worst)
	summary["verdict"] = verdict

	doc := map[string]any{
		"description":       "Cost of always-on request tracing: Type 1 and Type 3 collaborative queries via DB-UDF (the obsbench paired workload, gated at 2% relative) and a sub-100µs plain-SQL join+aggregate stress line (gated on the absolute per-query delta — the fixed ~1.5µs per-trace cost is a visible fraction of a query this small). All workloads run with metrics + query history armed in both configurations, with and without the tail-sampled trace store. The traced configuration builds a span tree per query and runs the Finish-time sampling decision; the baseline pays only the nil checks. Cells are measured in process CPU time (getrusage) per query — immune to the shared-core scheduling noise that makes wall-clock cells scatter on this container. Self-checks force retention and verify the span trees through sys.traces/sys.spans SQL and the Chrome trace_event export.",
		"benchmark":         "go run ./cmd/tracebench -json",
		"cpu":               "Intel(R) Xeon(R) Processor @ 2.10GHz",
		"date":              time.Now().Format("2006-01-02"),
		"results_ns_per_op": results,
		"summary":           summary,
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fmt.Println(verdict)
}

// overheadPct estimates traced-vs-baseline overhead as the ratio of the
// two sample medians. The cells alternate configurations within every
// round, so slow machine drift hits both samples equally and cancels in
// the ratio; the medians shrug off the scheduling outliers this container
// produces. (An earlier per-round paired-ratio median amplified them
// instead: one stalled cell skews its round's ratio by its full magnitude,
// and with 10-20% per-cell scatter the ratio distribution is right-skewed,
// reading several points of phantom overhead.)
func overheadPct(base, traced []int64) float64 {
	if len(base) == 0 || len(traced) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(base) - 1)
}

// cpuTime reads the process's consumed CPU time (user + system). Unlike
// wall time it is immune to the time this container's shared core spends
// running somebody else, which is the dominant noise source here.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []int64) float64 {
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	if n%2 == 1 {
		return float64(sorted[n/2])
	}
	return float64(sorted[n/2-1]+sorted[n/2]) / 2
}

// mean is the trimmed mean used across the BENCH_*.json harnesses: drop
// one outlier from each end when there are enough samples.
func mean(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(sorted) > 4 {
		sorted = sorted[1 : len(sorted)-1]
	}
	var sum int64
	for _, x := range sorted {
		sum += x
	}
	return sum / int64(len(sorted))
}

func round2(x float64) float64 {
	if x < 0 {
		return -float64(int(-x*100+0.5)) / 100
	}
	return float64(int(x*100+0.5)) / 100
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracebench: "+format+"\n", args...)
	os.Exit(1)
}
