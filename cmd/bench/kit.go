package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/colquery"
	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

// ---- Measurement cells ----

// A cell is one configuration of one workload. A sample runs op batch
// times and is billed in process CPU time per operation; batch is sized so
// a sample spans tens of milliseconds.
type cell struct {
	name  string
	batch int
	arm   func() (disarm func()) // optional: applies the configuration outside the timed window
	op    func() error
}

// measureCells warms every cell up once, then runs iters rounds. Within a
// round each group's cells run forward on even rounds and in reverse on
// odd ones, so slow machine drift hits every configuration equally, and a
// forced collection before each cell keeps the previous cell's GC debt out
// of its bill. Cells are timed in CPU time, not wall time: on a shared
// core, wall-clock cells scatter 5-20% however large the batch, because
// the process is charged for time it was not running. It returns the
// per-operation samples keyed by cell name.
func measureCells(groups [][]cell, iters int) (map[string][]int64, error) {
	if iters < 1 {
		return nil, fmt.Errorf("-iters %d: want at least one round", iters)
	}
	for _, g := range groups {
		for _, c := range g {
			if _, err := c.sample(); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
			}
		}
	}
	ns := map[string][]int64{}
	for i := 0; i < iters; i++ {
		for _, g := range groups {
			for j := range g {
				c := g[j]
				if i%2 == 1 {
					c = g[len(g)-1-j]
				}
				runtime.GC()
				v, err := c.sample()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", c.name, err)
				}
				ns[c.name] = append(ns[c.name], v)
			}
		}
	}
	return ns, nil
}

func (c cell) sample() (int64, error) {
	if c.arm != nil {
		defer c.arm()()
	}
	start := cpuTime()
	for k := 0; k < c.batch; k++ {
		if err := c.op(); err != nil {
			return 0, err
		}
	}
	return (cpuTime() - start).Nanoseconds() / int64(c.batch), nil
}

// cpuTime reads the process's consumed CPU time (user + system).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// getrusage(RUSAGE_SELF) fails only on an invalid argument.
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// overheadPct is the overhead of samples x over base as the ratio of the
// two sample medians. The cells alternate within every round, so drift
// cancels in the ratio, and the medians shrug off scheduling outliers. (A
// per-round paired-ratio median amplifies them instead: one stalled cell
// skews its round's ratio by its full magnitude, and with 10-20% per-cell
// scatter the ratio distribution is right-skewed, reading several points
// of phantom overhead.)
func overheadPct(base, x []int64) float64 {
	if len(base) == 0 || len(x) == 0 {
		return 0
	}
	return 100 * (median(x)/median(base) - 1)
}

// ---- Closed-loop runner ----

// load is what a closed-loop run achieved in its measurement window.
type load struct {
	ops      int
	perSec   float64
	p50, p99 time.Duration
}

// closedLoop drives workers goroutines, each calling its own op (built by
// newOp on the calling goroutine) back to back: a warm-up, then a timed
// window of length dur. An operation counts when it began inside the
// window. The first error stops every worker and is returned.
func closedLoop(workers int, dur time.Duration, newOp func(w int) func() error) (load, error) {
	const warmup = 200 * time.Millisecond
	lats := make([][]time.Duration, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	stop := make(chan struct{})
	failed := make(chan struct{})
	var failOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		op := newOp(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			measuring := false
			startCh := start
			for {
				select {
				case <-stop:
					return
				case <-startCh:
					measuring = true
					startCh = nil // a nil channel never fires again
				default:
				}
				t0 := time.Now()
				if err := op(); err != nil {
					errs[w] = fmt.Errorf("worker %d: %w", w, err)
					failOnce.Do(func() { close(failed) })
					return
				}
				if measuring {
					lats[w] = append(lats[w], time.Since(t0))
				}
			}
		}(w)
	}
	var t0 time.Time
	select {
	case <-time.After(warmup):
		t0 = time.Now()
		close(start)
		select {
		case <-time.After(dur):
		case <-failed:
		}
	case <-failed:
	}
	close(stop)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return load{}, err
	}
	elapsed := time.Since(t0)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return load{
		ops:    len(all),
		perSec: round2(float64(len(all)) / elapsed.Seconds()),
		p50:    percentile(all, 0.50),
		p99:    percentile(all, 0.99),
	}, nil
}

// ---- Fixtures ----

// iotEnv generates the IoT dataset at scale with 8x8 keyframes and binds
// the default model repository, the setup of every collaborative-query
// workload.
func iotEnv(scale int) (*strategies.Context, error) {
	ds, err := iotdata.Generate(iotdata.Config{Scale: scale, KeyframeSide: 8, Seed: 7, PatternCount: 6})
	if err != nil {
		return nil, err
	}
	env := strategies.NewContext(ds)
	if err := env.BindDefaults(modelrepo.NewRepository(8, 99), 20); err != nil {
		return nil, err
	}
	return env, nil
}

// dbudfOp returns one Table I query of type ty at 5% selectivity, run
// through the DB-UDF strategy under the fallback ladder.
func dbudfOp(env *strategies.Context, ty colquery.QueryType) (func() error, error) {
	q, err := colquery.GenerateAnalyzed(ty, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		return nil, fmt.Errorf("generating Type%d: %w", ty, err)
	}
	return func() error {
		_, _, err := strategies.ExecuteWithFallback(context.Background(), env, &strategies.DBUDF{}, q)
		return err
	}, nil
}

// relationalQuery is the filter + hash-join + grouped-aggregation query
// over the relationalDB tables.
const relationalQuery = `SELECT d.name, count(*) AS n, sum(b.b) AS s, avg(b.a) AS m
	FROM big b INNER JOIN dim d ON b.g = d.g
	WHERE b.a > 250 AND b.b < 75.0
	GROUP BY d.name ORDER BY name`

// relationalDB builds a serial engine holding the fact table big (rows
// xorshift rows) and the 500-row dimension dim.
func relationalDB(rows int) (*sqldb.DB, error) {
	db := sqldb.New()
	db.Profile = sqldb.NewProfile()
	db.Parallelism = 1
	for _, ddl := range []string{`CREATE TABLE big (a Int64, b Float64, g Int64)`, `CREATE TABLE dim (g Int64, name String)`} {
		if _, err := db.Exec(ddl); err != nil {
			return nil, err
		}
	}
	big := db.GetTable("big")
	rng := xorshift(12345)
	for i := 0; i < rows; i++ {
		a := int64(rng.next() % 1000)
		b := float64(rng.next()%10000) / 100.0
		g := int64(rng.next() % 500)
		if err := big.AppendRow([]sqldb.Datum{sqldb.Int(a), sqldb.Float(b), sqldb.Int(g)}); err != nil {
			return nil, err
		}
	}
	dim := db.GetTable("dim")
	for g := 0; g < 500; g++ {
		if err := dim.AppendRow([]sqldb.Datum{sqldb.Int(int64(g)), sqldb.Str(fmt.Sprintf("grp_%03d", g%37))}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// xorshift is the deterministic generator behind the benchmark tables and
// request streams.
type xorshift uint64

func (s *xorshift) next() uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return uint64(*s)
}

// ---- Output ----

// report is a subcommand's outcome: its document fields, the summary the
// gates read, and a one-line verdict.
type report struct {
	doc     map[string]any
	summary map[string]any
	verdict string
}

// writeReport stamps the document with the run's environment, writes it
// as indented JSON to stdout and the verdict to stderr.
func writeReport(stdout, stderr io.Writer, argv []string, r report) error {
	doc := r.doc
	if r.summary == nil {
		r.summary = map[string]any{}
	}
	r.summary["verdict"] = r.verdict
	doc["summary"] = r.summary
	doc["benchmark"] = "go run ./cmd/" + strings.Join(argv, " ")
	doc["argv"] = argv
	doc["numcpu"] = runtime.NumCPU()
	doc["gomaxprocs"] = runtime.GOMAXPROCS(0)
	doc["go"] = runtime.Version()
	doc["date"] = time.Now().Format("2006-01-02")
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	_, err := fmt.Fprintln(stderr, r.verdict)
	return err
}

func median(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	if n%2 == 1 {
		return float64(sorted[n/2])
	}
	return float64(sorted[n/2-1]+sorted[n/2]) / 2
}

// percentile returns the p-quantile (0..1) of an ascending slice by
// nearest-lower rank.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// parseLevels parses a comma-separated list of positive integers.
func parseLevels(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -levels %q: want comma-separated positive integers", s)
		}
		out = append(out, n)
	}
	return out, nil
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

// ms and us convert a duration to milliseconds and microseconds, rounded
// to two decimals.
func ms(d time.Duration) float64 { return round2(float64(d) / 1e6) }
func us(d time.Duration) float64 { return round2(float64(d) / 1e3) }
