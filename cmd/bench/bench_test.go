package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []int64
		want float64
	}{
		{nil, 0},
		{[]int64{7}, 7},
		{[]int64{9, 1, 5}, 5},
		{[]int64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestOverheadIsRatioOfMedians(t *testing.T) {
	base := []int64{100, 300, 100, 100, 100}
	x := []int64{110, 110, 500, 110, 100}
	if got := round2(overheadPct(base, x)); got != 10 {
		t.Errorf("overheadPct = %v, want 10 (medians 110 over 100)", got)
	}
	if got := overheadPct(nil, x); got != 0 {
		t.Errorf("overheadPct with no baseline = %v, want 0", got)
	}
}

func TestPercentileIndex(t *testing.T) {
	sorted := make([]time.Duration, 101)
	for i := range sorted {
		sorted[i] = time.Duration(i)
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{0, 0}, {0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(0..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]time.Duration{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("percentile of 4 at 0.5 = %v, want the lower middle 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestParseLevels(t *testing.T) {
	got, err := parseLevels("1, 8,32")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 8 || got[2] != 32 {
		t.Errorf("parseLevels(\"1, 8,32\") = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "a", "1,", "-2", "1,x"} {
		if _, err := parseLevels(bad); err == nil {
			t.Errorf("parseLevels(%q) accepted bad input", bad)
		}
	}
}

func TestRound2(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{3.456, 3.46}, {-3.456, -3.46}, {-3.454, -3.45}, {-0.005, -0.01}, {2, 2},
	} {
		if got := round2(tc.in); got != tc.want {
			t.Errorf("round2(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestClosedLoopReportsWorkerError(t *testing.T) {
	boom := errors.New("boom")
	_, err := closedLoop(3, time.Minute, func(w int) func() error {
		return func() error {
			if w == 1 {
				return boom
			}
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("closedLoop error = %v, want the worker's error", err)
	}
}

func TestDispatcherUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"nope"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		for _, sc := range subcommands {
			if !strings.Contains(stderr.String(), sc.name) {
				t.Errorf("run(%q) usage does not list %s", args, sc.name)
			}
		}
	}
	for _, args := range [][]string{{"serve", "-levels", "0"}, {"par", "-iters", "0"}, {"sysobs", "-iters", "0", "-scale", "1"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("run(%q) = %d, want 1 (stderr %q)", args, code, stderr.String())
		}
	}
}

func TestParSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"par", "-rows", "2000", "-iters", "1", "-levels", "1,2"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	var doc struct {
		NumCPU     int      `json:"numcpu"`
		GOMAXPROCS int      `json:"gomaxprocs"`
		Go         string   `json:"go"`
		Date       string   `json:"date"`
		Argv       []string `json:"argv"`
		Summary    struct {
			Speedup float64 `json:"speedup"`
			Verdict string  `json:"verdict"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("decoding document: %v\n%s", err, stdout.String())
	}
	if doc.NumCPU != runtime.NumCPU() || doc.GOMAXPROCS != runtime.GOMAXPROCS(0) || doc.Go != runtime.Version() {
		t.Errorf("env fields = %d/%d/%s, want %d/%d/%s", doc.NumCPU, doc.GOMAXPROCS, doc.Go,
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	}
	if _, err := time.Parse("2006-01-02", doc.Date); err != nil {
		t.Errorf("date %q: %v", doc.Date, err)
	}
	if strings.Join(doc.Argv, " ") != "bench "+strings.Join(args, " ") {
		t.Errorf("argv = %q", doc.Argv)
	}
	if doc.Summary.Speedup <= 0 {
		t.Errorf("speedup = %v, want > 0", doc.Summary.Speedup)
	}
	if got := strings.TrimSpace(stderr.String()); got != doc.Summary.Verdict || got == "" {
		t.Errorf("stderr %q, want the verdict %q", got, doc.Summary.Verdict)
	}
}
