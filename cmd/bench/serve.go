package main

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sqldb"
)

const serveQuery = `SELECT grp, count(*) AS c, avg(v) AS m FROM pt WHERE v > 10 GROUP BY grp ORDER BY grp`

// serveCmd measures serving-layer throughput: an in-process sqlserved over
// a generated fact table, driven by N concurrent client sessions each
// running serveQuery in a closed loop. It reports queries/second and
// latency percentiles per concurrency level, and the concurrency-8 vs
// concurrency-1 speedup that BENCH_server.json gates on (>=3x on >=4-core
// hardware; below that, sessions time-slice and the gate does not apply).
func serveCmd(fs *flag.FlagSet) func() (report, error) {
	rows := fs.Int("rows", 50000, "fact table rows")
	dur := fs.Duration("dur", 2*time.Second, "measurement window per concurrency level")
	levels := fs.String("levels", "1,8,32", "comma-separated client concurrency levels")
	maxConcurrent := fs.Int("max-concurrent", 64, "server admission MaxConcurrent (kept above the client fan-out so admission is not the bottleneck)")
	parallel := fs.Int("parallel", 1, "per-query executor parallelism (1 = serial per query; inter-query parallelism is what this bench scales)")
	return func() (report, error) {
		lvls, err := parseLevels(*levels)
		if err != nil {
			return report{}, err
		}
		db := sqldb.New()
		db.Metrics = obs.NewRegistry()
		db.Parallelism = *parallel
		db.EnableCache(128)
		db.EnableSysCatalog()
		if _, err := db.Exec(`CREATE TABLE pt (id Int64, grp Int64, v Float64)`); err != nil {
			return report{}, err
		}
		pt := db.GetTable("pt")
		rng := xorshift(12345)
		for i := 0; i < *rows; i++ {
			grp := int64(rng.next() % 37)
			v := float64(rng.next()%10000) / 100.0
			if err := pt.AppendRow([]sqldb.Datum{sqldb.Int(int64(i)), sqldb.Int(grp), sqldb.Float(v)}); err != nil {
				return report{}, err
			}
		}
		srv := server.New(db, nil, server.Config{
			Admission: server.AdmissionConfig{MaxConcurrent: *maxConcurrent, MaxQueue: 4096},
		})
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		defer srv.Drain()

		var results []map[string]any
		qps := map[int]float64{}
		for _, c := range lvls {
			l, err := serveLevel(hs, c, *dur)
			if err != nil {
				return report{}, err
			}
			qps[c] = l.perSec
			results = append(results, map[string]any{
				"concurrency": c, "queries": l.ops, "qps": l.perSec, "p50_ms": ms(l.p50), "p99_ms": ms(l.p99),
			})
		}
		speedup8 := 0.0
		if qps[1] > 0 {
			speedup8 = qps[8] / qps[1]
		}
		ncpu := runtime.NumCPU()
		gated := ncpu < 4
		verdict := fmt.Sprintf("concurrency-8 throughput is %.2fx concurrency-1 against the >=3x target", speedup8)
		if gated {
			verdict += fmt.Sprintf(" — NOT demonstrable here: only %d CPU(s) visible, so concurrent sessions time-slice instead of running in parallel; the ratio then measures serving overhead (near 1x is the healthy outcome). Re-run on a >=4-core machine for the real number; CI's server job asserts the gate there.", ncpu)
		}
		return report{
			doc: map[string]any{
				"description": "Serving-layer throughput: one in-process sqlserved over a " + strconv.Itoa(*rows) + "-row fact table; N concurrent client sessions each run the filter+group-by query in a closed loop through the full HTTP/JSON + admission + session path. qps counts completed round trips.",
				"query":       serveQuery,
				"results":     results,
			},
			summary: map[string]any{
				"speedup_c8_vs_c1":     round2(speedup8),
				"target_speedup_at_c8": 3.0,
				"gated_on_numcpu_ge_4": gated,
			},
			verdict: verdict,
		}, nil
	}
}

// serveLevel connects concurrency client sessions (spread over four
// tenants) and runs them through one closed-loop window.
func serveLevel(hs *httptest.Server, concurrency int, dur time.Duration) (load, error) {
	ctx := context.Background()
	clients := make([]*server.Client, concurrency)
	for i := range clients {
		cli := server.Dial(hs.URL).WithHTTPClient(hs.Client())
		if err := cli.Connect(ctx, fmt.Sprintf("bench-%d", i%4)); err != nil {
			return load{}, err
		}
		defer cli.Close(ctx)
		clients[i] = cli
	}
	return closedLoop(concurrency, dur, func(w int) func() error {
		return func() error {
			_, err := clients[w].Query(ctx, serveQuery)
			return err
		}
	})
}
