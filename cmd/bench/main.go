// Command bench runs the repository's micro-benchmark harnesses, the
// sources of the checked-in BENCH_*.json documents. Each subcommand writes
// its JSON document to stdout and a one-line verdict to stderr; every
// document records the run's NumCPU, GOMAXPROCS, Go version, date and
// argv.
//
//	go run ./cmd/bench sysobs -iters 9 > BENCH_sysobs.json
//	go run ./cmd/bench par -rows 300000 -levels 1,4
//
// Overheads of one configuration over another (sysobs, trace, the faults
// lifecycle variants) are measured with one method: interleaved cells in
// process CPU time per operation, compared by the ratio of medians.
// Throughput (serve, sched) comes from one closed-loop runner.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// subcommands lists every harness. setup declares the subcommand's flags
// and returns the function that runs it once they are parsed.
var subcommands = []struct {
	name, about string
	setup       func(fs *flag.FlagSet) func() (report, error)
}{
	{"cache", "repeated collaborative queries with caches off vs on (BENCH_cache.json)", cacheCmd},
	{"faults", "query-lifecycle layer overhead and fallback latency (BENCH_faults.json)", faultsCmd},
	{"par", "parallel executor speedup on the filter+join+aggregate query (BENCH_parallel.json)", parCmd},
	{"sched", "direct vs scheduled inference throughput (BENCH_batch.json)", schedCmd},
	{"serve", "serving-layer throughput per client concurrency (BENCH_server.json)", serveCmd},
	{"sysobs", "always-on accounting overhead on the Type 1-4 queries (BENCH_sysobs.json)", sysobsCmd},
	{"trace", "always-on tracing overhead (BENCH_trace.json)", traceCmd},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args to a subcommand and returns the exit status: 0 on
// success, 1 when the run fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, sc := range subcommands {
			if sc.name != args[0] {
				continue
			}
			fs := flag.NewFlagSet("bench "+sc.name, flag.ContinueOnError)
			fs.SetOutput(stderr)
			runSub := sc.setup(fs)
			if err := fs.Parse(args[1:]); err != nil {
				if errors.Is(err, flag.ErrHelp) {
					return 0
				}
				return 2
			}
			r, err := runSub()
			if err == nil {
				err = writeReport(stdout, stderr, append([]string{"bench"}, args...), r)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench %s: %v\n", sc.name, err)
				return 1
			}
			return 0
		}
		fmt.Fprintf(stderr, "bench: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: bench <subcommand> [flags]\n\nsubcommands:")
	for _, sc := range subcommands {
		fmt.Fprintf(stderr, "  %-7s %s\n", sc.name, sc.about)
	}
	return 2
}
