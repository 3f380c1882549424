package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/bat"
	"repro/internal/dcopt"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/minisql"
	"repro/internal/server"
)

// counters is one snapshot of every public stat the layers expose; a
// run's per-layer counts are the difference of two snapshots.
type counters struct {
	cache live.CacheStats
	hop   live.HopStats
	// core protocol counters summed over every node (Node.Stats).
	requests, resends, parked, unparked int64
	planHits, planMisses, rejected      int64
	tier                                live.TierStats
	mem                                 runtime.MemStats
}

func snapshot(st *stack) counters {
	var c counters
	for _, r := range st.rings {
		cs := r.CacheStats()
		c.cache.Hits += cs.Hits
		c.cache.Misses += cs.Misses
		c.cache.Stale += cs.Stale
		c.cache.RingWaits += cs.RingWaits
		c.cache.RingWaitNanos += cs.RingWaitNanos
		hs := r.HopStats()
		c.hop.Msgs += hs.Msgs
		c.hop.Frags += hs.Frags
		c.hop.Bytes += hs.Bytes
		c.hop.Parked += hs.Parked
		c.hop.Unparked += hs.Unparked
		c.hop.PoolWaits += hs.PoolWaits
		c.hop.WireSyscalls += hs.WireSyscalls
		for i := 0; i < r.Size(); i++ {
			ns := r.Node(i).Stats()
			c.requests += int64(ns.RequestsSent)
			c.resends += int64(ns.Resends)
			c.parked += int64(ns.BATsParked)
			c.unparked += int64(ns.BATsUnparked)
		}
	}
	for i := range st.srv.Addrs() {
		ss := st.srv.Stats(i)
		c.planHits += ss.PlanCacheHits
		c.planMisses += ss.PlanCacheMisses
		c.rejected += ss.Rejected
	}
	if st.router != nil {
		c.tier = st.router.TierStats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// span is one timed step of the traced run. Spans of one sampled query
// share Query; Parent is the ID of the span that caused this one (0 for
// a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	query int64
}

func (t *tracer) newQuery() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.query++
	return t.query
}

func (t *tracer) add(parent, query int64, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// Span names. The decomposition steps are children of "decompose"; the
// served call is its own root under the same query id.
const (
	spanServed    = "served"
	spanDecompose = "decompose"
	spanCompile   = "minisql.compile"
	spanRewrite   = "dcopt.rewrite"
	spanExec      = "live.exec"
	spanMal       = "mal.exec"
	spanEncode    = "server.encode"
	spanDecode    = "dcclient.decode"
)

// decompose follows a served query with the same query run step by step
// in-process on the node the client is connected to: Compile, Rewrite,
// ExecPlan, EncodeResult, DecodeResult, and mal.RunAll of the compiled
// plan on the local catalog. A step that does not finish within the
// query deadline (a hung pin) abandons the sample.
func (t *tracer) decompose(node *live.Node, schema minisql.Schema, catalog mal.Catalog, sql string, servedStart time.Time, served time.Duration) {
	type step struct {
		name       string
		start, end time.Time
	}
	var steps []step
	run := func(name string, fn func() error) bool {
		start := time.Now()
		if err := fn(); err != nil {
			return false
		}
		steps = append(steps, step{name, start, time.Now()})
		return true
	}
	var (
		plan, dcPlan *mal.Plan
		rs           *mal.ResultSet
		payload      []byte
	)
	begin := time.Now()
	ok := run(spanCompile, func() (err error) { plan, err = minisql.Compile(sql, schema, "sys"); return }) &&
		run(spanRewrite, func() (err error) { dcPlan, _, err = dcopt.Rewrite(plan); return }) &&
		run(spanExec, func() (err error) { rs, err = execBounded(node, dcPlan); return }) &&
		run(spanEncode, func() (err error) { payload, err = server.EncodeResult(rs); return }) &&
		run(spanDecode, func() (err error) { _, err = server.DecodeResult(payload); return }) &&
		run(spanMal, func() (err error) { _, err = runLocal(plan, catalog); return })
	if !ok {
		return
	}
	q := t.newQuery()
	t.add(0, q, spanServed, servedStart, servedStart.Add(served))
	root := t.add(0, q, spanDecompose, begin, time.Now())
	for _, s := range steps {
		t.add(root, q, s.name, s.start, s.end)
	}
}

// execBounded runs ExecPlan, giving up after the query deadline: the
// in-process path has no cancellation, and a pin parked for good must
// not stall the traced run.
func execBounded(node *live.Node, plan *mal.Plan) (*mal.ResultSet, error) {
	var rs *mal.ResultSet
	err := bounded(func() (err error) { rs, err = node.ExecPlan(plan); return })
	return rs, err
}

// bounded runs fn, returning errStuck if it has not finished within the
// query deadline. fn keeps running until the ring closes.
func bounded(fn func() error) error {
	ch := make(chan error, 1) // fn may finish after the caller gave up
	go func() { ch <- fn() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(queryDeadline):
		return errStuck
	}
}

// layerTimes is the per-sample summary of the decomposition spans.
type layerTimes struct {
	n                                     int
	compile, rewrite, exec, mal, enc, dec time.Duration
	pinOverhead, serverOverhead, unexpl   time.Duration
}

func (t *tracer) summarize() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	byQuery := map[int64]map[string]time.Duration{}
	for _, s := range t.spans {
		m := byQuery[s.Query]
		if m == nil {
			m = map[string]time.Duration{}
			byQuery[s.Query] = m
		}
		m[s.Name] = s.dur()
	}
	var lt layerTimes
	for _, m := range byQuery {
		lt.n++
		lt.compile += m[spanCompile]
		lt.rewrite += m[spanRewrite]
		lt.exec += m[spanExec]
		lt.mal += m[spanMal]
		lt.enc += m[spanEncode]
		lt.dec += m[spanDecode]
		lt.pinOverhead += m[spanExec] - m[spanMal]
		// The served path finds its plan in the server's plan cache, so
		// compile and rewrite are off it; what remains is ExecPlan,
		// encode and decode.
		lt.serverOverhead += m[spanServed] - m[spanExec]
		lt.unexpl += m[spanServed] - m[spanExec] - m[spanEncode] - m[spanDecode]
	}
	return lt
}

// mean divides an accumulated duration by the sample count.
func (lt layerTimes) mean(d time.Duration) time.Duration {
	if lt.n == 0 {
		return 0
	}
	return d / time.Duration(lt.n)
}

// probes are the direct calls the traced run makes after its window:
// Node.Fetch split by whether the hot-set cache served it, Router.Fetch
// split by the fragment's home ring, and the bat codec on a circulated
// fragment.
type probes struct {
	fetchHit, fetchMiss []time.Duration
	hotFetch, coldFetch []time.Duration
	marshalGBps         float64
	unmarshal           time.Duration
}

func runProbes(st *stack, in *inputs) probes {
	var p probes
	node := st.query.Node(0)
	var frag *bat.BAT
	for round := 0; round < 2; round++ {
		for _, name := range in.probe {
			before := node.CacheStats()
			start := time.Now()
			var b *bat.BAT
			if err := bounded(func() (err error) { b, err = node.Fetch(name); return }); err != nil {
				continue
			}
			d := time.Since(start)
			after := node.CacheStats()
			switch {
			case after.Hits > before.Hits:
				p.fetchHit = append(p.fetchHit, d)
			case after.RingWaits > before.RingWaits:
				p.fetchMiss = append(p.fetchMiss, d)
			}
			if frag == nil {
				frag = b
			}
		}
	}
	if st.router != nil {
		// Tables spread over the Zipf ranks, so both tiers are sampled.
		for k := 0; k < zipfTables; k += 8 {
			name := zipfColumn(k)
			homes, ok := st.router.Homes(name)
			if !ok || len(homes) == 0 {
				continue
			}
			start := time.Now()
			if err := bounded(func() error { _, err := st.router.Fetch(name); return err }); err != nil {
				continue
			}
			if homes[0] == live.HotRing {
				p.hotFetch = append(p.hotFetch, time.Since(start))
			} else {
				p.coldFetch = append(p.coldFetch, time.Since(start))
			}
		}
	}
	if frag != nil {
		buf := make([]byte, 0, bat.MarshalSize(frag))
		n := 0
		start := time.Now()
		for time.Since(start) < 50*time.Millisecond {
			buf = bat.AppendMarshal(buf[:0], frag)
			n++
		}
		p.marshalGBps = float64(len(buf)*n) / time.Since(start).Seconds() / 1e9
		n = 0
		start = time.Now()
		for time.Since(start) < 20*time.Millisecond {
			if _, err := bat.UnmarshalView(buf); err != nil {
				break
			}
			n++
		}
		if n > 0 {
			p.unmarshal = time.Since(start) / time.Duration(n)
		}
	}
	return p
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
