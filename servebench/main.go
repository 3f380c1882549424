// Command servebench is the repository's benchmark: it stands up a
// served ring in-process from the public API, drives one named workload
// through dcclient as a closed loop of two sessions, checks every
// answer against an oracle that never touches the ring, and prints the
// metrics named in BENCHMARK.json as the last line of its output.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash servebench/run.sh --workload hot-mix --seed 1 --seconds 40 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics, writing its spans under
// .bench_build/servebench/. --repeat N runs the workload N times, each
// in a fresh process, and prints the median and quartiles of every
// metric. See servebench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/dcclient"
)

// outDir holds everything a run writes, relative to the repository root.
const outDir = ".bench_build/servebench"

// setupRepeats is how many times a run stands the deployment up; setup_s
// is the median.
const setupRepeats = 31

// traceSlice alternates traced and untraced slices of the traced run's
// window, so trace.overhead_pct compares the two under the same load. In
// each traced slice, every client decomposes the first query it is
// served.
const traceSlice = time.Second

// writerLead is how long update-mix's writer runs before the window.
const writerLead = 2 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot-mix, cold-scan, update-mix or zipf-tiered")
		seed    = flag.Int64("seed", 1, "seed for the generated data and query streams")
		seconds = flag.Int("seconds", 40, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "run the workload this many times in fresh processes and summarise")
	)
	flag.Parse()
	s, ok := specByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(s.name, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// record is what a run writes next to its result: the host and build it
// ran on, its outcome, and the traced run's spans.
type record struct {
	Host      hostInfo `json:"host"`
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Updates   int      `json:"updates"`
	Result    result   `json:"result"`
	Spans     []span   `json:"spans,omitempty"`
	Errors    []string `json:"errors,omitempty"`
}

func run(s spec, seed int64, window time.Duration, traced bool) (*result, error) {
	in, err := genInputs(s, seed)
	if err != nil {
		return nil, err
	}

	st, setupS, err := timedSetup(s, in)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer closeBounded(st)

	qs := make([]querier, clients)
	for c := range qs {
		cl, err := dcclient.Dial(st.addrs[c%len(st.addrs)])
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", c, err)
		}
		defer cl.Close()
		qs[c] = cl
	}
	warm := time.Now()
	if err := warmUp(qs, in); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	warmS := time.Since(warm).Seconds()

	streams := make([]func() string, clients)
	for c := range streams {
		streams[c] = in.stream(c)
	}
	tr := &tracer{t0: time.Now()}
	opts := loopOpts{window: window, deadline: queryDeadline}
	if traced {
		last := make([]time.Duration, clients) // each index is owned by one client goroutine
		opts.traced = func(off time.Duration) bool { return (off/traceSlice)%2 == 1 }
		opts.sampled = func(c int, sql string, off, served time.Duration, start time.Time) {
			slice := off / traceSlice
			if slice == last[c] {
				return
			}
			last[c] = slice
			tr.decompose(st.query.Node(c%st.query.Size()), in.schema, in.catalog, sql, start, served)
		}
	}

	ctx, stopWriter := context.WithCancel(context.Background())
	var (
		updLats    []time.Duration
		updFailed  int
		writerDone = make(chan struct{})
	)
	if s.writer {
		go func() {
			defer close(writerDone)
			updLats, updFailed = writerLoop(ctx, updateEvery, st.updateOnce)
		}()
		// The window opens once updates are flowing, so that it sees the
		// mix's steady state rather than the first update's arrival.
		time.Sleep(writerLead)
	} else {
		close(writerDone)
	}
	// Start every window from the same heap: without this, garbage from
	// data generation and the set-ups decides when the first collections
	// fall.
	debug.FreeOSMemory()
	before := snapshot(st)
	rss := startRSS()
	begin := time.Now()
	lr := closedLoop(qs, streams, in.check, opts)
	elapsed := time.Since(begin)
	peakRSS := rss.peakMB()
	stopWriter()
	<-writerDone
	after := snapshot(st)

	res := &result{
		Correct:   len(lr.incorrect) == 0,
		Attempted: lr.attempted() + len(updLats) + updFailed,
		Failed:    lr.failed + lr.rejected + len(lr.incorrect) + updFailed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation finished within the %s window", window)
	}
	m := res.Metrics
	if !traced {
		m["query_p50_ms"] = metric{percentileMs(lr.samples, 0.50), "ms"}
		m["query_p90_ms"] = metric{percentileMs(lr.samples, 0.90), "ms"}
		m["throughput_qps"] = metric{float64(lr.ok) / elapsed.Seconds(), "1/s"}
		m["setup_s"] = metric{setupS, "s"}
		m["peak_rss_mb"] = metric{peakRSS, "MiB"}
	} else {
		p := runProbes(st, in)
		layerMetrics(m, st, lr, before, after, elapsed, tr.summarize(), p)
		m["query_p99_ms"] = metric{percentileMs(lr.samples, 0.99), "ms"}
		m["error_rate"] = metric{lr.errorRate(), "ratio"}
		m["update_p50_ms"] = metric{durPercentileMs(updLats, 0.50), "ms"}
		m["update_p90_ms"] = metric{durPercentileMs(updLats, 0.90), "ms"}
		m["live.warmup_s"] = metric{warmS, "s"}
	}

	rec := record{
		Host:      hostRecord(seed, st),
		Workload:  s.name,
		Seed:      seed,
		Seconds:   elapsed.Seconds(),
		Traced:    traced,
		Attempted: lr.attempted(),
		Updates:   len(updLats) + updFailed,
		Result:    *res,
	}
	if traced {
		tr.mu.Lock()
		rec.Spans = tr.spans
		tr.mu.Unlock()
	}
	if !res.Correct {
		rec.Errors = lr.incorrect
		fmt.Fprintln(os.Stderr, "servebench:", lr.describe())
	}
	hostLine, _ := json.Marshal(rec.Host)
	fmt.Printf("host: %s\n", hostLine)
	fmt.Printf("outcome: attempted=%d ok=%d failed=%d rejected=%d incorrect=%d updates=%d update_failed=%d\n",
		lr.attempted(), lr.ok, lr.failed, lr.rejected, len(lr.incorrect), len(updLats), updFailed)
	if err := writeRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: writing run record:", err)
	}
	return res, nil
}

// timedSetup stands the deployment up setupRepeats times, keeping the
// last, and reports the median time from ring construction until every
// listener accepted. Data generation is not timed.
func timedSetup(s spec, in *inputs) (*stack, float64, error) {
	var times []float64
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		// A collection landing inside a set-up of a few milliseconds would
		// dominate it.
		runtime.GC()
		start := time.Now()
		var err error
		if st, err = setup(s, in); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return st, times[len(times)/2], nil
}

// warmUp sends every distinct query of the mix once from each client, so
// plans are cached and fragments have circulated before the window.
func warmUp(qs []querier, in *inputs) error {
	for c, q := range qs {
		for _, sql := range in.mix {
			rs, err := callWithDeadline(context.Background(), q, sql, 2*queryDeadline)
			if err != nil {
				return fmt.Errorf("client %d: %.40q: %w", c, sql, err)
			}
			if err := in.check(sql, rs); err != nil {
				return err
			}
		}
	}
	return nil
}

// closeBounded tears the deployment down, giving up after a few seconds
// so that a wedged shutdown cannot hold the result back.
func closeBounded(st *stack) {
	done := make(chan struct{})
	go func() {
		st.close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		fmt.Fprintln(os.Stderr, "servebench: teardown did not finish in 10s; exiting anyway")
	}
}

func writeRecord(rec record) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if rec.Traced {
		kind = "trace"
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s.json", rec.Workload, rec.Seed, kind))
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
