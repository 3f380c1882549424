package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/dcclient"
	"repro/internal/mal"
)

// querier is the client surface the loop drives: *dcclient.Client in a
// run, a fake in the tests.
type querier interface {
	Query(ctx context.Context, sql string) (*mal.ResultSet, error)
}

// stuckGrace is how long past its deadline a call may take to return
// before the loop stops waiting for it and moves on.
const stuckGrace = 500 * time.Millisecond

// sample is one attempted query.
type sample struct {
	lat    time.Duration
	failed bool // failed, rejected or past its deadline
	traced bool // issued in a traced slice (see loopOpts.traced)
}

// loopResult is what the closed loop observed in its window.
type loopResult struct {
	samples   []sample
	ok        int
	failed    int // errors and expired deadlines
	rejected  int // admission pushback
	incorrect []string
}

// loopOpts shapes one closed-loop window.
type loopOpts struct {
	window   time.Duration
	deadline time.Duration
	// traced, when non-nil, reports whether a query issued at the given
	// offset into the window falls in a traced slice; after each such
	// query that succeeded, sampled is called on the client goroutine
	// with that offset.
	traced  func(time.Duration) bool
	sampled func(client int, sql string, off, served time.Duration, start time.Time)
}

// closedLoop runs one session per querier: each sends its next query
// only after the previous one completed. Queries still running when the
// window closes are cancelled and not counted: the window cut them, not
// the system.
func closedLoop(qs []querier, streams []func() string, check func(string, *mal.ResultSet) error, o loopOpts) *loopResult {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	begin := time.Now()
	end := begin.Add(o.window)
	stop := time.AfterFunc(o.window, cancel)
	defer stop.Stop()

	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	for c := range qs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := streams[c]
			for ctx.Err() == nil {
				sql := next()
				start := time.Now()
				off := start.Sub(begin)
				traced := o.traced != nil && o.traced(off)
				rs, err := callWithDeadline(ctx, qs[c], sql, o.deadline)
				done := time.Now()
				if done.After(end) {
					return
				}
				lat := done.Sub(start)
				var bad error
				if err == nil {
					bad = check(sql, rs)
				}
				mu.Lock()
				switch {
				case err == nil && bad == nil:
					res.ok++
				case err == nil:
					res.incorrect = append(res.incorrect, bad.Error())
				case dcclient.IsTemporary(err):
					res.rejected++
				default:
					res.failed++
				}
				res.samples = append(res.samples, sample{lat: lat, failed: err != nil || bad != nil, traced: traced})
				mu.Unlock()
				if err == nil && bad == nil && traced && o.sampled != nil {
					o.sampled(c, sql, off, lat, start)
				}
			}
		}(c)
	}
	wg.Wait()
	return &res
}

var errStuck = errors.New("query did not return by its deadline")

// callWithDeadline issues one query under the per-query deadline. The
// call runs on its own goroutine, so a call that ignores its context
// counts as failed at the deadline instead of stalling the session.
func callWithDeadline(parent context.Context, q querier, sql string, deadline time.Duration) (*mal.ResultSet, error) {
	ctx, cancel := context.WithTimeout(parent, deadline)
	defer cancel()
	type answer struct {
		rs  *mal.ResultSet
		err error
	}
	ch := make(chan answer, 1) // the caller may have gone when the call returns
	go func() {
		rs, err := q.Query(ctx, sql)
		ch <- answer{rs, err}
	}()
	stuck := time.NewTimer(deadline + stuckGrace)
	defer stuck.Stop()
	select {
	case a := <-ch:
		return a.rs, a.err
	case <-stuck.C:
		return nil, errStuck
	case <-parent.Done():
		return nil, parent.Err()
	}
}

// attempted counts every query the window finished.
func (r *loopResult) attempted() int { return len(r.samples) }

// errorRate is failed, rejected and deadline-expired over attempted.
func (r *loopResult) errorRate() float64 {
	if r.attempted() == 0 {
		return 0
	}
	return float64(r.failed+r.rejected) / float64(r.attempted())
}

// percentileMs is the nearest-rank q-quantile over attempted queries in
// milliseconds, with a failed query ranked slower than any success.
func percentileMs(samples []sample, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].failed != s[j].failed {
			return !s[i].failed
		}
		return s[i].lat < s[j].lat
	})
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i].lat)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durPercentileMs is the nearest-rank q-quantile of ds in milliseconds.
func durPercentileMs(ds []time.Duration, q float64) float64 {
	s := make([]sample, len(ds))
	for i, d := range ds {
		s[i] = sample{lat: d}
	}
	return percentileMs(s, q)
}

// writerLoop calls update at a fixed rate until ctx ends and returns
// the latency of every completed update and how many failed.
func writerLoop(ctx context.Context, every time.Duration, update func() error) (lats []time.Duration, failed int) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return lats, failed
		case <-t.C:
		}
		start := time.Now()
		if err := update(); err != nil {
			failed++
			continue
		}
		lats = append(lats, time.Since(start))
	}
}

// describe summarises the first few incorrect answers for stderr.
func (r *loopResult) describe() string {
	n := len(r.incorrect)
	if n > 3 {
		n = 3
	}
	return fmt.Sprintf("%d incorrect answers; first: %v", len(r.incorrect), r.incorrect[:n])
}
