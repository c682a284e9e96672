package main

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/colquery"
	"repro/internal/strategies"
)

// cacheCmd measures the repeated-query workload: each Table I template
// type is executed several times against a fresh dataset, once with all
// caches disabled and once with the plan/statement cache and inference
// memoization enabled. The cached column is the steady-state iteration
// time (every repeat after the first, which warms the caches). A repeat
// whose row count drifts from the first run fails the run.
func cacheCmd(fs *flag.FlagSet) func() (report, error) {
	scale := fs.Int("scale", 2, "IoT dataset scale unit")
	repeats := fs.Int("repeats", 4, "times each query is re-issued")
	capacity := fs.Int("capacity", 4096, "cache capacity (entries per LRU)")
	sel := fs.Float64("selectivity", 0.05, "template predicate selectivity")
	strat := fs.String("strategy", "DB-UDF", "strategy to drive (DB-UDF, DB-PyTorch, DL2SQL, DL2SQL-OP)")
	return func() (report, error) {
		var s strategies.Strategy
		for _, c := range strategies.All() {
			if c.Name() == *strat {
				s = c
			}
		}
		if s == nil {
			return report{}, fmt.Errorf("unknown strategy %q (want DB-UDF, DB-PyTorch, DL2SQL, or DL2SQL-OP)", *strat)
		}
		var rows []map[string]any
		var parts []string
		for ty := colquery.Type1; ty <= colquery.Type4; ty++ {
			q, err := colquery.GenerateAnalyzed(ty, colquery.TemplateParams{Selectivity: *sel})
			if err != nil {
				return report{}, fmt.Errorf("generating Type%d: %w", ty, err)
			}
			uncached, _, _, err := repeatQuery(*scale, s, q, *repeats, 0)
			if err != nil {
				return report{}, err
			}
			cached, first, counters, err := repeatQuery(*scale, s, q, *repeats, *capacity)
			if err != nil {
				return report{}, err
			}
			speedup := 0.0
			if cached > 0 {
				speedup = round2(float64(uncached) / float64(cached))
			}
			row := map[string]any{
				"type":           fmt.Sprintf("Type%d", ty),
				"uncached_ms":    ms(uncached),
				"cached_ms":      ms(cached),
				"cached_warm_ms": ms(first),
				"speedup":        speedup,
			}
			for k, v := range counters {
				row[k] = v
			}
			rows = append(rows, row)
			parts = append(parts, fmt.Sprintf("Type%d %.2fx", ty, speedup))
		}
		return report{
			doc: map[string]any{
				"description": "Repeated collaborative queries, per-iteration steady-state wall clock with all caches off vs the plan/statement cache and inference memoization on.",
				"strategy":    *strat,
				"scale":       *scale,
				"repeats":     *repeats,
				"capacity":    *capacity,
				"selectivity": *sel,
				"results":     rows,
			},
			verdict: fmt.Sprintf("caching speeds %s up %s over %d repeats; row counts stable across repeats", *strat, strings.Join(parts, ", "), *repeats),
		}, nil
	}
}

// repeatQuery re-issues q repeats times on a fresh dataset. capacity 0
// runs fully uncached; otherwise the statement/plan cache and inference
// memoization are enabled. It returns the steady-state mean (the
// iterations after the first), the first iteration's time, and the cache
// counters after the run.
func repeatQuery(scale int, s strategies.Strategy, q *colquery.Query, repeats, capacity int) (steady, first time.Duration, counters map[string]any, err error) {
	env, err := iotEnv(scale)
	if err != nil {
		return 0, 0, nil, err
	}
	if capacity > 0 {
		env.Dataset.DB.EnableCache(capacity)
		env.EnableInferCache(capacity)
	}
	var firstRows int
	for i := 0; i < repeats; i++ {
		start := time.Now()
		res, _, err := s.Execute(context.Background(), env, q)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("%s iteration %d: %w", s.Name(), i, err)
		}
		el := time.Since(start)
		if i == 0 {
			first, firstRows = el, res.NumRows()
			continue
		}
		steady += el
		if res.NumRows() != firstRows {
			return 0, 0, nil, fmt.Errorf("%s iteration %d: row count drifted (%d vs %d)", s.Name(), i, res.NumRows(), firstRows)
		}
	}
	if repeats > 1 {
		steady /= time.Duration(repeats - 1)
	} else {
		steady = first
	}
	counters = map[string]any{}
	if capacity > 0 {
		cs := env.Dataset.DB.CacheStats()
		counters["plan_hits"] = cs.Plan.Hits
		counters["plan_misses"] = cs.Plan.Misses
		counters["stmt_hits"] = cs.Stmt.Hits
		is := env.InferCacheStats()
		counters["infer_hits"] = is.Hits
		counters["infer_misses"] = is.Misses
		if env.SQLCache != nil {
			results, steps := env.SQLCache.Stats()
			counters["sql_result_hits"] = results.Hits
			counters["sql_step_hits"] = steps.Hits
		}
	}
	return steady, first, counters, nil
}
