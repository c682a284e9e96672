package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"strings"

	"repro/internal/colquery"
	"repro/internal/obs"
)

// traceCmd measures the cost of always-on request tracing. Its workloads:
//
//   - type1/type3 — collaborative queries through DB-UDF with the fallback
//     ladder (ExecuteWithFallback owns the trace), the sysobs workload and
//     the population the 2% relative budget gates on.
//   - sql — a sub-100µs join + aggregate through the engine's statement
//     path. The fixed per-trace cost (~1.5µs: ID, arena, span tree, tail
//     decision) is a visible fraction of a query this small, so it is
//     gated on the absolute per-query delta, not the ratio.
//
// Both cells keep metrics, the query history and the sys.* catalog armed;
// the only delta is the tail-sampled trace store:
//
//   - baseline — no store: every tracing call site pays only its nil check
//   - traced   — a seeded store with the default tail-sampling policy, so
//     every query builds its span tree and Finish runs the sampling decision
//
// The run self-checks that, with retention forced, a query's span tree is
// reachable through SQL over sys.traces and sys.spans and exports as
// Chrome trace_event JSON.
func traceCmd(fs *flag.FlagSet) func() (report, error) {
	iters := fs.Int("iters", 25, "timed rounds")
	scale := fs.Int("scale", 20, "IoT dataset scale unit (20 = paper default)")
	return func() (report, error) {
		env, err := iotEnv(*scale)
		if err != nil {
			return report{}, err
		}
		db := env.Dataset.DB
		db.Metrics = obs.NewRegistry()
		db.History = obs.NewQueryHistory(256)
		env.Metrics, env.History = db.Metrics, db.History
		db.EnableSysCatalog()
		env.AttachObservability(db)
		setStore := func(s *obs.TraceStore) func() {
			db.Traces, env.Traces = s, s
			return func() { db.Traces, env.Traces = nil, nil }
		}
		traces := obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, Metrics: db.Metrics})
		arm := func() func() { return setStore(traces) }

		type1, err := dbudfOp(env, colquery.Type1)
		if err != nil {
			return report{}, err
		}
		type3, err := dbudfOp(env, colquery.Type3)
		if err != nil {
			return report{}, err
		}
		const sqlQuery = `SELECT F.patternID p, count(*) c, avg(F.meter) m
FROM fabric F, device D
WHERE F.transID = D.transID AND F.temperature > 20.0
GROUP BY F.patternID`
		sqlOp := func() error {
			_, err := db.ExecContext(context.Background(), sqlQuery)
			return err
		}
		// The microquery runs in tens of microseconds, so its samples
		// batch 384 runs to span tens of milliseconds.
		workloads := []struct {
			name  string
			batch int
			op    func() error
		}{{"type1", 4, type1}, {"type3", 4, type3}, {"sql", 384, sqlOp}}
		var groups [][]cell
		for _, w := range workloads {
			groups = append(groups, []cell{
				{name: w.name + "_baseline", batch: w.batch, op: w.op},
				{name: w.name + "_traced", batch: w.batch, arm: arm, op: w.op},
			})
		}
		ns, err := measureCells(groups, *iters)
		if err != nil {
			return report{}, err
		}

		keepAll := obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, SampleEvery: 1, Metrics: db.Metrics})
		defer setStore(keepAll)()
		if err := sqlOp(); err != nil {
			return report{}, fmt.Errorf("self-check query: %w", err)
		}
		if err := type1(); err != nil {
			return report{}, fmt.Errorf("self-check colquery: %w", err)
		}
		for _, check := range []string{
			`SELECT count(*) c FROM sys.traces WHERE spans >= 1`,
			`SELECT count(*) c FROM sys.spans WHERE trace_id <> ''`,
		} {
			sel, err := db.Query(check)
			if err != nil {
				return report{}, fmt.Errorf("self-check %s: %w", check, err)
			}
			if sel.Cols[0].Get(0).I == 0 {
				return report{}, fmt.Errorf("self-check %s: no rows with SampleEvery=1", check)
			}
		}
		snap := keepAll.Snapshot()
		var chrome bytes.Buffer
		if err := obs.WriteChromeTrace(&chrome, snap[len(snap)-1]); err != nil {
			return report{}, fmt.Errorf("chrome export self-check: %w", err)
		}
		if !strings.Contains(chrome.String(), "trace_id") {
			return report{}, fmt.Errorf("chrome export self-check: no trace_id in output")
		}
		if err := db.Metrics.Check(); err != nil {
			return report{}, fmt.Errorf("registry self-check: %w", err)
		}

		// The 2% relative budget gates the collaborative workloads; the
		// microquery is gated on its absolute per-query delta, since a
		// ratio there would only measure the query's smallness.
		const sqlBudgetNs = 5000
		summary := map[string]any{"budget_pct": 2.0, "sql_budget_ns": sqlBudgetNs}
		worst, sqlPct := -100.0, 0.0
		var parts []string
		for _, w := range workloads {
			base, traced := ns[w.name+"_baseline"], ns[w.name+"_traced"]
			pct := round2(overheadPct(base, traced))
			summary[w.name+"_overhead_pct"] = pct
			if w.name == "sql" {
				sqlPct = pct
				continue
			}
			worst = max(worst, pct)
			parts = append(parts, fmt.Sprintf("%s %+.2f%%", w.name, pct))
		}
		sqlDelta := int64(median(ns["sql_traced"]) - median(ns["sql_baseline"]))
		summary["sql_delta_ns_per_query"] = sqlDelta
		summary["worst_overhead_pct"] = worst
		parts = append(parts, fmt.Sprintf("sql %+dns (%+.2f%%)", sqlDelta, sqlPct))
		within := "within"
		if worst > 2.0 || sqlDelta > sqlBudgetNs {
			within = "OVER"
		}
		return report{
			doc: map[string]any{
				"description":       "Cost of always-on request tracing: Type 1 and Type 3 collaborative queries via DB-UDF (the sysobs workload, gated at 2% relative) and a sub-100µs plain-SQL join+aggregate stress line (gated on the absolute per-query delta — the fixed ~1.5µs per-trace cost is a visible fraction of a query this small). All workloads run with metrics + query history armed in both configurations, with and without the tail-sampled trace store. The traced configuration builds a span tree per query and runs the Finish-time sampling decision; the baseline pays only the nil checks. Cells are process CPU time (getrusage) per query in alternating order; overhead is the ratio of medians. Self-checks force retention and verify the span trees through sys.traces/sys.spans SQL and the Chrome trace_event export.",
				"results_ns_per_op": ns,
			},
			summary: summary,
			verdict: fmt.Sprintf(
				"always-on tracing (span trees + tail sampler, default 1-in-64 retention) costs %s on top of the armed observability baseline; collaborative worst case %+.2f%% and sql stress delta %+dns/query, %s budget (2%% relative on the collaborative workloads, %dns absolute on the microquery); sys.traces/sys.spans SQL and Chrome export self-checks passed",
				strings.Join(parts, ", "), worst, sqlDelta, within, sqlBudgetNs),
		}, nil
	}
}
