package main

import (
	"bytes"
	"flag"
	"fmt"
	"strings"

	"repro/internal/colquery"
	"repro/internal/obs"
	"repro/internal/obs/export"
)

// sysobsCmd measures the cost of always-on self-observability on the four
// collaborative query types, each run through DB-UDF in two cells:
//
//   - seed     — no metrics registry, no query history, no accounting
//     context (the pre-observability configuration)
//   - observed — metrics + a 256-entry query-history ring armed on both the
//     engine and the strategy layer, with the sys.* catalog registered
//
// The cells share one dataset and flip the History/Metrics pointers, so
// the measured delta is exactly the accounting path. The run self-checks
// that SQL over sys.queries sees the recorded history and that the
// Prometheus export renders a well-formed snapshot.
func sysobsCmd(fs *flag.FlagSet) func() (report, error) {
	iters := fs.Int("iters", 7, "timed rounds")
	scale := fs.Int("scale", 2, "IoT dataset scale unit")
	return func() (report, error) {
		env, err := iotEnv(*scale)
		if err != nil {
			return report{}, err
		}
		metrics := obs.NewRegistry()
		history := obs.NewQueryHistory(256)
		db := env.Dataset.DB
		arm := func() func() {
			db.Metrics, db.History = metrics, history
			env.Metrics, env.History = metrics, history
			return func() {
				db.Metrics, db.History = nil, nil
				env.Metrics, env.History = nil, nil
			}
		}
		disarm := arm()
		db.EnableSysCatalog()
		env.AttachObservability(db)
		disarm()

		// A single DB-UDF run is a couple of milliseconds, so a sample
		// runs the query four times.
		var groups [][]cell
		for ty := colquery.Type1; ty <= colquery.Type4; ty++ {
			op, err := dbudfOp(env, ty)
			if err != nil {
				return report{}, err
			}
			name := fmt.Sprintf("type%d", ty)
			groups = append(groups, []cell{
				{name: name + "_seed", batch: 4, op: op},
				{name: name + "_observed", batch: 4, arm: arm, op: op},
			})
		}
		ns, err := measureCells(groups, *iters)
		if err != nil {
			return report{}, err
		}

		defer arm()()
		sel, err := db.Query(`SELECT count(*) c FROM sys.queries WHERE wall_ms >= 0`)
		if err != nil {
			return report{}, fmt.Errorf("sys.queries self-check: %w", err)
		}
		if sel.Cols[0].Get(0).I == 0 {
			return report{}, fmt.Errorf("sys.queries self-check: history empty after benchmark")
		}
		if err := metrics.Check(); err != nil {
			return report{}, fmt.Errorf("registry self-check: %w", err)
		}
		var prom bytes.Buffer
		if err := export.WritePrometheus(&prom, metrics); err != nil {
			return report{}, fmt.Errorf("prometheus export: %w", err)
		}
		if !strings.Contains(prom.String(), "# TYPE") {
			return report{}, fmt.Errorf("prometheus export empty: %q", prom.String())
		}

		summary := map[string]any{"budget_pct": 2.0}
		worst := -100.0
		var parts []string
		for ty := colquery.Type1; ty <= colquery.Type4; ty++ {
			name := fmt.Sprintf("type%d", ty)
			pct := round2(overheadPct(ns[name+"_seed"], ns[name+"_observed"]))
			summary[name+"_overhead_pct"] = pct
			worst = max(worst, pct)
			parts = append(parts, fmt.Sprintf("Type%d %+.2f%%", ty, pct))
		}
		summary["worst_overhead_pct"] = worst
		within := "within"
		if worst > 2.0 {
			within = "OVER"
		}
		return report{
			doc: map[string]any{
				"description":       "Cost of always-on self-observability on the four collaborative query types, each executed through the DB-UDF strategy: seed (no registry, no history, no accounting context) vs observed (engine + strategy metrics, a 256-entry query-history ring, and the sys.* catalog armed). Identical dataset and queries; only the History/Metrics pointers differ. Cells are process CPU time (getrusage) per query in alternating order; overhead is the ratio of medians. The run self-checks that sys.queries answers SQL over the recorded history and that the Prometheus text export renders.",
				"results_ns_per_op": ns,
			},
			summary: summary,
			verdict: fmt.Sprintf(
				"always-on accounting (metrics + history ring + sys catalog) costs %s on the Type 1-4 collaborative queries via DB-UDF; worst case %+.2f%%, %s the 2%% budget; sys.queries SQL and Prometheus export self-checks passed",
				strings.Join(parts, ", "), worst, within),
		}, nil
	}
}
