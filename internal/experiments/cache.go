package experiments

// Hot-set cache repeat-query sweep: the live-ring measurement behind
// the cache's reason to exist. The paper keeps hot data flowing so a
// query meets it in flight; the dual optimisation is that a node that
// just saw a fragment should not wait a full revolution to see it
// again. The sweep runs an identical repeat workload over the TPC-H
// ring at several CacheBytes settings (0 = cache off, the
// pure-circulation behavior) and records:
//
//   - pin latency: repeated whole pins of a fully-hot single-fragment
//     probe column owned by another node — pure ring wait versus pure
//     node-local read, no merge cost mixed in;
//   - query latency: the Q6-style selective aggregate repeated against
//     the fragmented lineitem columns;
//   - the cache's own accounting (hit rate, coalesced pins, ring-wait
//     time) and the ring traffic the repeat phase caused — with the
//     cache on and the set fully hot, circulation stops entirely.
//
// The repeats are spaced by a think time: intermittent re-reads are
// exactly the access pattern where pure circulation keeps paying ring
// latency for bytes the node already held.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bat"
	"repro/internal/live"
	"repro/internal/tpch"
)

// CacheRun is one CacheBytes setting of the sweep.
type CacheRun struct {
	CacheBytes     int     `json:"cache_bytes"` // 0 = cache off
	Mode           string  `json:"mode"`
	PinP50Micros   int64   `json:"pin_p50_us"`
	PinP99Micros   int64   `json:"pin_p99_us"`
	QueryP50Micros int64   `json:"query_p50_us"`
	QueryP99Micros int64   `json:"query_p99_us"`
	Hits           int64   `json:"cache_hits"`
	Misses         int64   `json:"cache_misses"`
	Coalesced      int64   `json:"cache_coalesced"`
	HitRate        float64 `json:"hit_rate"`
	RingWaitMicros int64   `json:"ring_wait_us"`     // total time pins blocked on circulation
	RepeatHopBytes int64   `json:"repeat_hop_bytes"` // ring data traffic during the repeat phases
}

// CacheResult is the whole sweep.
type CacheResult struct {
	LineitemRows int        `json:"lineitem_rows"`
	Nodes        int        `json:"nodes"`
	Repeats      int        `json:"repeats"`
	ThinkMicros  int64      `json:"think_us"`
	Runs         []CacheRun `json:"runs"`
}

// probeRows sizes the single-fragment probe column (published by node
// 0, pinned from node 1): big enough that a ring delivery is real work,
// small enough to stay far under any ring message limit.
const probeRows = 32 << 10

// CacheSweep runs the repeat-query sweep: a TPC-H database with the
// given lineitem row count partitioned over a live ring of nodes, the
// repeat workload fired at each CacheBytes setting under the given
// eviction mode, one ring per setting so every run starts cold.
func CacheSweep(rows, nodes, repeats int, think time.Duration, budgets []int, mode live.CacheMode, seed int64) (*CacheResult, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(rows), seed)
	res := &CacheResult{
		LineitemRows: db.Rows("lineitem"),
		Nodes:        nodes,
		Repeats:      repeats,
		ThinkMicros:  think.Microseconds(),
	}
	for _, budget := range budgets {
		run, err := cacheRun(db, nodes, repeats, think, budget, mode)
		if err != nil {
			return nil, fmt.Errorf("cache sweep (bytes=%d): %w", budget, err)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

func cacheRun(db *tpch.DB, nodes, repeats int, think time.Duration, budget int, mode live.CacheMode) (CacheRun, error) {
	cfg := live.DefaultConfig()
	cfg.CacheBytes = budget
	cfg.CacheMode = mode
	ring, err := live.NewRing(nodes, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		return CacheRun{}, err
	}
	defer ring.Close()

	// The probe: a single-fragment intermediate owned by node 0, pinned
	// repeatedly from node 1 — every pin crosses the ring unless the
	// cache serves it.
	vals := make([]int64, probeRows)
	for i := range vals {
		vals[i] = int64(i)
	}
	if _, err := ring.Node(0).Publish("hot.probe", bat.MakeInts("probe", vals)); err != nil {
		return CacheRun{}, err
	}
	reader := ring.Node(1)

	// Warm: one pin and one query so code paths and (when enabled) the
	// cache are primed before measuring.
	if _, err := reader.Fetch("hot.probe"); err != nil {
		return CacheRun{}, err
	}
	if rs, err := reader.ExecSQL(tpch.Q6ishSQL); err != nil {
		return CacheRun{}, err
	} else if rs.NumRows() != 1 {
		return CacheRun{}, fmt.Errorf("bad warmup result: %d rows", rs.NumRows())
	}
	hopsBefore := settleHopBytes(ring)

	pinLat := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		time.Sleep(think)
		start := time.Now()
		b, err := reader.Fetch("hot.probe")
		if err != nil {
			return CacheRun{}, err
		}
		if b.Len() != probeRows {
			return CacheRun{}, fmt.Errorf("probe pin returned %d rows, want %d", b.Len(), probeRows)
		}
		pinLat = append(pinLat, time.Since(start))
	}

	queryLat := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		time.Sleep(think)
		start := time.Now()
		rs, err := reader.ExecSQL(tpch.Q6ishSQL)
		if err != nil {
			return CacheRun{}, err
		}
		if rs.NumRows() != 1 {
			return CacheRun{}, fmt.Errorf("bad result: %d rows", rs.NumRows())
		}
		queryLat = append(queryLat, time.Since(start))
	}
	hopsAfter := settleHopBytes(ring)

	cs := ring.CacheStats()
	modeName := "off"
	if budget > 0 {
		modeName = mode.String()
	}
	return CacheRun{
		CacheBytes:     budget,
		Mode:           modeName,
		PinP50Micros:   quantileMicros(pinLat, 0.50),
		PinP99Micros:   quantileMicros(pinLat, 0.99),
		QueryP50Micros: quantileMicros(queryLat, 0.50),
		QueryP99Micros: quantileMicros(queryLat, 0.99),
		Hits:           cs.Hits,
		Misses:         cs.Misses,
		Coalesced:      cs.Coalesced,
		HitRate:        cs.HitRate(),
		RingWaitMicros: cs.RingWaitNanos / 1e3,
		RepeatHopBytes: hopsAfter - hopsBefore,
	}, nil
}

// settleHopBytes reads the ring's cumulative data traffic once
// in-flight sends stop changing it (bounded settle, as the fragment
// sweep does).
func settleHopBytes(r *live.Ring) int64 {
	settle := time.Now().Add(100 * time.Millisecond)
	last := r.HopBytes()
	for time.Now().Before(settle) {
		time.Sleep(10 * time.Millisecond)
		cur := r.HopBytes()
		if cur == last {
			break
		}
		last = cur
	}
	return last
}

func quantileMicros(lat []time.Duration, p float64) int64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(p*float64(len(sorted)-1))].Microseconds()
}

func (r *CacheResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hot-set cache repeat sweep — lineitem %d rows over %d nodes, %d repeats, %dµs think\n",
		r.LineitemRows, r.Nodes, r.Repeats, r.ThinkMicros)
	fmt.Fprintf(&b, "%12s %6s %10s %10s %11s %11s %8s %10s %12s %12s\n",
		"cache_bytes", "mode", "pin_p50us", "pin_p99us", "query_p50us", "query_p99us",
		"hit_rate", "coalesced", "ringwait_us", "repeat_hop_B")
	for _, run := range r.Runs {
		name := fmt.Sprint(run.CacheBytes)
		if run.CacheBytes == 0 {
			name = "off"
		}
		fmt.Fprintf(&b, "%12s %6s %10d %10d %11d %11d %7.1f%% %10d %12d %12d\n",
			name, run.Mode, run.PinP50Micros, run.PinP99Micros,
			run.QueryP50Micros, run.QueryP99Micros,
			100*run.HitRate, run.Coalesced, run.RingWaitMicros, run.RepeatHopBytes)
	}
	return b.String()
}

// Gate enforces the cache invariants on the recorded runs: the repeat
// workload must hit an enabled cache, a fully-hot repeated pin must be
// at least 5× faster at the 99th percentile than pure circulation, and
// with the set fully hot the cache must have stopped ring circulation
// during the repeat phase (node-local reads, not faster ring waits).
// The bounds are the same for the -short smoke.
func (r *CacheResult) Gate(short bool) error {
	var off *CacheRun
	for i := range r.Runs {
		if r.Runs[i].CacheBytes == 0 {
			off = &r.Runs[i]
		}
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		if run.CacheBytes == 0 {
			continue
		}
		if run.Hits == 0 {
			return fmt.Errorf("CacheBytes=%d: repeat workload never hit the cache", run.CacheBytes)
		}
		if off != nil && run.PinP99Micros*5 > off.PinP99Micros {
			return fmt.Errorf("CacheBytes=%d: pin p99 %dµs vs cache-off %dµs — want ≥5× reduction",
				run.CacheBytes, run.PinP99Micros, off.PinP99Micros)
		}
		if off != nil && off.RepeatHopBytes > 0 && run.RepeatHopBytes >= off.RepeatHopBytes {
			return fmt.Errorf("CacheBytes=%d: repeat-phase ring traffic %dB did not drop below cache-off %dB",
				run.CacheBytes, run.RepeatHopBytes, off.RepeatHopBytes)
		}
	}
	return nil
}
