package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// schedCmd measures cross-query inference throughput with and without the
// shared scheduler (internal/schedule): N concurrent workers each run a
// closed loop of inference requests — one (model, keyframe) forward pass
// per request, drawn from a pool of distinct keyframes.
//
// The "direct" mode is the no-scheduler baseline: every request decodes
// its keyframe and runs its own forward pass, as a query's strategy-local
// inference path does. The "sched" mode submits every request to one
// shared scheduler, where concurrent requests coalesce into batched
// MatMuls, identical in-flight requests single-flight, and the shared
// prediction cache answers repeats — the monitoring-dashboard workload of
// the paper's Table I templates, where many sessions keep asking about
// overlapping keyframes.
//
// BENCH_batch.json gates on concurrency-8 sched throughput >= 2x the
// direct baseline on >= 4 CPUs; below that, concurrency time-slices and
// the ratio is meaningless.
func schedCmd(fs *flag.FlagSet) func() (report, error) {
	dur := fs.Duration("dur", time.Second, "measurement window per (mode, concurrency) cell")
	levels := fs.String("levels", "1,8,32,64", "comma-separated worker concurrency levels")
	pool := fs.Int("pool", 64, "distinct keyframes in the request pool (0 = every request unique: pure coalescing, no dedup/cache)")
	side := fs.Int("side", 8, "keyframe side length (model input is side x side)")
	maxBatch := fs.Int("max-batch", 32, "scheduler MaxBatch knob")
	window := fs.Duration("window", 500*time.Microsecond, "scheduler batch-window knob")
	cacheCap := fs.Int("cache", 4096, "shared prediction-cache capacity (0 = off)")
	return func() (report, error) {
		lvls, err := parseLevels(*levels)
		if err != nil {
			return report{}, err
		}
		model := modelrepo.NewRepository(*side, 99).ForTask(modelrepo.TaskPatternRecog).Model
		art, err := nn.EncodeBytes(model)
		if err != nil {
			return report{}, err
		}
		artHash := tensor.HashBytes(art)

		// pool 0 pregenerates a large pool that workers walk without
		// repetition within the window, so dedup and the cache almost
		// never fire and the bench isolates coalescing.
		unique := *pool <= 0
		n := *pool
		if unique {
			n = 1 << 16
		}
		blobs := make([][]byte, n)
		rng := rand.New(rand.NewSource(7))
		for i := range blobs {
			kf := tensor.New(3, *side, *side)
			d := kf.Data()
			for j := range d {
				d[j] = rng.Float64()
			}
			blobs[i] = iotdata.KeyframeBytes(kf)
		}
		// pick returns worker w's request stream: a stride walk in unique
		// mode (worker w takes i*concurrency+w), xorshift draws otherwise.
		pick := func(w, concurrency int) func() []byte {
			seq := w
			draw := xorshift(w*2654435761 + 1)
			return func() []byte {
				if unique {
					b := blobs[seq%len(blobs)]
					seq += concurrency
					return b
				}
				return blobs[draw.next()%uint64(len(blobs))]
			}
		}

		var results []map[string]any
		speedup8 := 0.0
		for _, c := range lvls {
			direct, err := closedLoop(c, *dur, func(w int) func() error {
				next := pick(w, c)
				return func() error {
					in, err := iotdata.KeyframeTensor(next())
					if err != nil {
						return err
					}
					mc := *model // shallow per-call copy, as the UDF path does
					_, _, err = mc.Predict(in)
					return err
				}
			})
			if err != nil {
				return report{}, fmt.Errorf("direct c=%d: %w", c, err)
			}

			// Each cell gets a fresh scheduler so its counters are per-cell.
			cfg := schedule.Config{MaxBatch: *maxBatch, Window: *window, Metrics: obs.NewRegistry()}
			if !unique {
				cfg.Cache = cache.New[schedule.Key, int](*cacheCap)
			}
			sched := schedule.New(cfg)
			be := schedule.NewNativeBackend(4)
			scheduled, err := closedLoop(c, *dur, func(w int) func() error {
				next := pick(w, c)
				return func() error {
					_, err := sched.Infer(context.Background(), be, artHash, art, next())
					return err
				}
			})
			sched.Drain()
			if err != nil {
				return report{}, fmt.Errorf("sched c=%d: %w", c, err)
			}
			st := sched.Stats()
			avgBatch := 0.0
			if st.Batches > 0 {
				avgBatch = round2(float64(st.Executed) / float64(st.Batches))
			}
			row := levelRow("sched", c, scheduled)
			row["batches"], row["avg_batch"], row["dedup_hits"], row["cache_hits"] = st.Batches, avgBatch, st.DedupHits, st.CacheHits
			results = append(results, levelRow("direct", c, direct), row)
			if c == 8 && direct.perSec > 0 {
				speedup8 = scheduled.perSec / direct.perSec
			}
		}

		ncpu := runtime.NumCPU()
		gated := ncpu < 4
		verdict := fmt.Sprintf("concurrency-8 scheduled throughput is %.2fx the no-scheduler baseline against the >=2x target", speedup8)
		if gated {
			verdict += fmt.Sprintf(" — NOT demonstrable here: only %d CPU(s) visible; re-run on a >=4-core machine (CI's scheduler job asserts the gate there).", ncpu)
		}
		return report{
			doc: map[string]any{
				"description": fmt.Sprintf("Cross-query inference scheduling: N concurrent workers each run a closed loop of (model, keyframe) inference requests over a pool of %d distinct keyframes. direct = per-request forward pass (no scheduler, the strategy-local baseline); sched = all requests submitted to one shared scheduler (coalesced batching + single-flight dedup + shared prediction cache). rps counts completed requests.", n),
				"knobs": map[string]any{
					"max_batch": *maxBatch,
					"window":    window.String(),
					"cache":     *cacheCap,
					"pool":      *pool,
				},
				"results": results,
			},
			summary: map[string]any{
				"speedup_c8_sched_vs_direct": round2(speedup8),
				"target_speedup_at_c8":       2.0,
				"gated_on_numcpu_ge_4":       gated,
			},
			verdict: verdict,
		}, nil
	}
}

func levelRow(mode string, concurrency int, l load) map[string]any {
	return map[string]any{
		"mode": mode, "concurrency": concurrency, "requests": l.ops,
		"rps": l.perSec, "p50_us": us(l.p50), "p99_us": us(l.p99),
	}
}
