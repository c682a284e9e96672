package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"time"

	"repro/internal/colquery"
	"repro/internal/faults"
	"repro/internal/strategies"
)

// faultsCmd measures the cost of the query-lifecycle layer on the
// relational query, one cell per variant:
//
//   - exec_plain      — Query without context (the nil-context fast path)
//   - ctx_background  — QueryContext(context.Background()), normalized to
//     the same path; should be indistinguishable
//   - ctx_cancellable — a live cancellable context (cooperative checks at
//     every morsel boundary)
//   - injector_armed  — cancellable context plus a fault injector whose
//     morsel.delay rule is gated to effectively never fire, the worst
//     production-off configuration
//
// plus the graceful-degradation latency: a Type 3 collaborative query via
// DB-UDF directly versus ExecuteWithFallback with a dead serving pipe
// (DB-PyTorch → DB-UDF). That pair is timed on the wall clock, because
// its cost includes retry back-off sleeps that CPU time cannot see.
func faultsCmd(fs *flag.FlagSet) func() (report, error) {
	rows := fs.Int("rows", 200000, "fact table rows for the relational query")
	iters := fs.Int("iters", 7, "timed rounds, and timed runs per fallback-latency variant")
	return func() (report, error) {
		db, err := relationalDB(*rows)
		if err != nil {
			return report{}, err
		}
		inert := faults.New(1, faults.Rule{Point: faults.PointMorselDelay, Delay: time.Millisecond, Every: 1 << 30})
		cancellable := func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := db.QueryContext(ctx, relationalQuery)
			return err
		}
		ns, err := measureCells([][]cell{{
			{name: "exec_plain", batch: 1, op: func() error { _, err := db.Query(relationalQuery); return err }},
			{name: "ctx_background", batch: 1, op: func() error {
				_, err := db.QueryContext(context.Background(), relationalQuery)
				return err
			}},
			{name: "ctx_cancellable", batch: 1, op: cancellable},
			{name: "injector_armed", batch: 1, op: cancellable, arm: func() func() {
				db.Faults = inert
				return func() { db.Faults = nil }
			}},
		}}, *iters)
		if err != nil {
			return report{}, err
		}

		direct, fallback, err := fallbackLatency(*iters)
		if err != nil {
			return report{}, err
		}

		base := ns["exec_plain"]
		overhead := func(name string) float64 { return round2(overheadPct(base, ns[name])) }
		failover := round2(100 * (median(fallback)/median(direct) - 1))
		within := "within"
		if overhead("ctx_background") > 2.0 {
			within = "OVER"
		}
		return report{
			doc: map[string]any{
				"description":       "Cost of the query-lifecycle layer on the hot relational path: the par filter+join+aggregate query under the nil-context fast path, a Background context (normalized to the same path), a live cancellable context (per-morsel cooperative checks), and an armed-but-inert fault injector; cells are process CPU time (getrusage) per query in alternating order, overheads the ratio of medians. fallback_latency_ns compares a Type-3 collaborative query answered by DB-UDF directly vs via ExecuteWithFallback with a dead serving pipe (DB-PyTorch retries, breaker, then degrades to DB-UDF), on the wall clock because the retry back-off sleeps are part of the cost.",
				"rows":              *rows,
				"results_ns_per_op": ns,
				"fallback_latency_ns": map[string]any{
					"dbudf_direct":          direct,
					"fallback_via_pytorch":  fallback,
					"failover_overhead_pct": failover,
				},
			},
			summary: map[string]any{
				"plain_median_ns":       int64(median(base)),
				"ctx_background_pct":    overhead("ctx_background"),
				"ctx_cancellable_pct":   overhead("ctx_cancellable"),
				"injector_armed_pct":    overhead("injector_armed"),
				"disabled_overhead_pct": overhead("ctx_background"),
				"budget_pct":            2.0,
			},
			verdict: fmt.Sprintf("disabled lifecycle layer costs %+.2f%% (Background ctx, %s the 2%% budget); a live cancellable ctx %+.2f%%, an armed-but-inert injector %+.2f%%; failover to DB-UDF adds %+.1f%% over calling DB-UDF directly (retry+breaker attempts on the dead pipe); fallback engaged on every run",
				overhead("ctx_background"), within, overhead("ctx_cancellable"), overhead("injector_armed"), failover),
		}, nil
	}
}

// fallbackLatency times a Type 3 collaborative query via DB-UDF directly
// and via the degradation ladder with a permanently dead serving pipe,
// each iters times after one warm-up run. It fails if the ladder ever
// answers without falling back.
func fallbackLatency(iters int) (direct, fallback []int64, err error) {
	env, err := iotEnv(2)
	if err != nil {
		return nil, nil, err
	}
	env.Retry = strategies.RetryPolicy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, JitterSeed: 3}
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i <= iters; i++ {
		start := time.Now()
		if _, _, err := (&strategies.DBUDF{}).Execute(context.Background(), env, q); err != nil {
			return nil, nil, fmt.Errorf("direct DB-UDF: %w", err)
		}
		if i > 0 {
			direct = append(direct, time.Since(start).Nanoseconds())
		}
	}
	env.Faults = faults.New(1, faults.Rule{Point: faults.PointServingError})
	for i := 0; i <= iters; i++ {
		env.Breaker = &strategies.Breaker{} // fresh breaker per run
		start := time.Now()
		_, bd, err := strategies.ExecuteWithFallback(context.Background(), env, &strategies.DBPyTorch{}, q)
		if err != nil {
			return nil, nil, fmt.Errorf("fallback run: %w", err)
		}
		if len(bd.FallbackPath) == 0 {
			return nil, nil, errors.New("fallback did not engage")
		}
		if i > 0 {
			fallback = append(fallback, time.Since(start).Nanoseconds())
		}
	}
	return direct, fallback, nil
}
