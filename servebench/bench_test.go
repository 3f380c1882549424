package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/mal"
)

// benchMetrics reads the metric names and units BENCHMARK.json promises.
func benchMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// inTempDir runs the test from an empty directory, so run records land
// there rather than in the source tree.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and
// traced, and checks that exactly the metrics BENCHMARK.json names come
// out, each with its unit, and that every answer was correct.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up every served ring")
	}
	endToEnd, perLayer := benchMetrics(t)
	inTempDir(t)
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			res, err := run(s, 1, time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", s.name, traced, res.Correct, res.Attempted)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", s.name, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", s.name, traced, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", s.name, traced, name)
				}
			}
		}
	}
}

// localQuerier answers from the no-ring oracle path, optionally
// corrupting one answer.
type localQuerier struct {
	in      *inputs
	corrupt func(sql string, rs *mal.ResultSet) *mal.ResultSet
}

func (q localQuerier) Query(_ context.Context, sql string) (*mal.ResultSet, error) {
	rs, err := localExec(sql, q.in.schema, q.in.catalog)
	if err != nil || q.corrupt == nil {
		return rs, err
	}
	return q.corrupt(sql, rs), nil
}

func streamsFor(in *inputs) []func() string {
	streams := make([]func() string, clients)
	for c := range streams {
		streams[c] = in.stream(c)
	}
	return streams
}

// TestOracleCatchesCorruptAnswer bumps one count in one query's answer
// and expects the loop to report it as incorrect, while the untouched
// answers pass.
func TestOracleCatchesCorruptAnswer(t *testing.T) {
	in, err := tpchInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]querier, clients)
	for c := range qs {
		qs[c] = localQuerier{in: in}
	}
	opts := loopOpts{window: 300 * time.Millisecond, deadline: time.Second}
	if lr := closedLoop(qs, streamsFor(in), in.check, opts); len(lr.incorrect) != 0 || lr.ok == 0 {
		t.Fatalf("honest answers: ok=%d incorrect=%v", lr.ok, lr.incorrect)
	}

	bump := func(sql string, rs *mal.ResultSet) *mal.ResultSet {
		if sql != in.mix[0] { // Q6ish: one row, sum and count
			return rs
		}
		out := &mal.ResultSet{Names: rs.Names, Cols: append([]*bat.BAT(nil), rs.Cols...)}
		n := rs.Cols[1].Tail().Int(0)
		out.Cols[1] = bat.MakeInts(rs.Cols[1].Name, []int64{n + 1})
		return out
	}
	for c := range qs {
		qs[c] = localQuerier{in: in, corrupt: bump}
	}
	lr := closedLoop(qs, streamsFor(in), in.check, opts)
	if len(lr.incorrect) == 0 {
		t.Fatal("a corrupted answer passed the oracle")
	}
	if lr.ok == 0 {
		t.Fatal("no untouched answer passed the oracle")
	}
}

// TestZipfOracleIsGeneratorChecksum checks zipf answers against the
// generator's sums, not against the ring or a first-seen answer.
func TestZipfOracleIsGeneratorChecksum(t *testing.T) {
	in := zipfInputs(1)
	sql := zipfSQL(7)
	rs, err := localExec(sql, in.schema, in.catalog)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.check(sql, rs); err != nil {
		t.Fatalf("local answer rejected: %v", err)
	}
	other, err := localExec(zipfSQL(8), in.schema, in.catalog)
	if err != nil {
		t.Fatal(err)
	}
	if in.check(sql, other) == nil {
		t.Fatal("another table's sum passed as t007's")
	}
}

// hangQuerier never returns: it ignores its context and blocks until the
// test ends.
type hangQuerier struct{ release chan struct{} }

func (q hangQuerier) Query(context.Context, string) (*mal.ResultSet, error) {
	<-q.release
	return nil, errors.New("released")
}

// TestHungQueryFailsAtDeadline fakes a query that never returns. The loop
// must count it as failed at the deadline, keep the window's length, and
// rank the failure slower than any success.
func TestHungQueryFailsAtDeadline(t *testing.T) {
	in, err := tpchInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	qs := []querier{hangQuerier{release}, localQuerier{in: in}}
	const deadline = 100 * time.Millisecond
	window := 2 * time.Second
	start := time.Now()
	lr := closedLoop(qs, streamsFor(in), in.check, loopOpts{window: window, deadline: deadline})
	if took := time.Since(start); took > window+deadline+stuckGrace+time.Second {
		t.Fatalf("the loop stalled: %s for a %s window", took, window)
	}
	if lr.failed == 0 {
		t.Fatal("a query that never returned was not counted as failed")
	}
	if lr.ok == 0 {
		t.Fatal("the healthy session made no progress beside the hung one")
	}
	for _, s := range lr.samples {
		if s.failed && s.lat < deadline {
			t.Errorf("failure recorded after %s, before the %s deadline", s.lat, deadline)
		}
	}
	// With more than 1% of attempts failed, p99 is a failure.
	if p99 := percentileMs(lr.samples, 0.99); p99 < ms(deadline) {
		t.Errorf("p99 %.3f ms ranks a failure below the %s deadline", p99, deadline)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90}, 25, 50, 75},
	} {
		q1, m, q3 := quartiles(tc.v)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
