package main

import (
	"flag"
	"fmt"
	"slices"
	"time"
)

// parCmd times the filter + hash-join + grouped-aggregation query over the
// relational fixture at each executor parallelism degree. Time is wall
// clock: a parallel speedup is exactly what CPU time cannot see.
func parCmd(fs *flag.FlagSet) func() (report, error) {
	rows := fs.Int("rows", 300000, "fact table rows")
	iters := fs.Int("iters", 5, "timed iterations per parallelism degree")
	levels := fs.String("levels", "1,4", "comma-separated executor parallelism degrees; speedup is the first degree's best time over the last's")
	return func() (report, error) {
		degrees, err := parseLevels(*levels)
		if err != nil {
			return report{}, err
		}
		if *iters < 1 {
			return report{}, fmt.Errorf("-iters %d: want at least one timed iteration", *iters)
		}
		db, err := relationalDB(*rows)
		if err != nil {
			return report{}, err
		}
		var results []map[string]any
		var bests []time.Duration
		for _, p := range degrees {
			db.Parallelism = p
			if _, err := db.Query(relationalQuery); err != nil { // warm-up
				return report{}, err
			}
			var samples []int64
			resultRows := 0
			for i := 0; i < *iters; i++ {
				start := time.Now()
				res, err := db.Query(relationalQuery)
				if err != nil {
					return report{}, err
				}
				samples = append(samples, time.Since(start).Nanoseconds())
				resultRows = res.NumRows()
			}
			best := time.Duration(slices.Min(samples))
			bests = append(bests, best)
			results = append(results, map[string]any{
				"parallelism": p,
				"result_rows": resultRows,
				"best_ms":     ms(best),
				"median_ms":   ms(time.Duration(median(samples))),
			})
		}
		speedup := 0.0
		if last := bests[len(bests)-1]; last > 0 {
			speedup = round2(float64(bests[0]) / float64(last))
		}
		return report{
			doc: map[string]any{
				"description": "Morsel-driven parallel executor: the filter + hash-join + grouped-aggregation query over a fact table joined to a 500-row dimension, wall clock per parallelism degree.",
				"rows":        *rows,
				"iters":       *iters,
				"results":     results,
			},
			summary: map[string]any{"speedup": speedup},
			verdict: fmt.Sprintf("parallelism %d best time is %.2fx parallelism %d's", degrees[len(degrees)-1], speedup, degrees[0]),
		}, nil
	}
}
