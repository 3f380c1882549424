package experiments

// Fragment-granularity sweep: the live-ring rendition of the paper's §5
// granularity experiments. The unit of circulation is the fragment; its
// size trades hop latency and ring bandwidth against per-message
// overhead and hot-set flexibility. The sweep runs the same selective
// aggregate over the TPC-H ring at several FragmentRows settings
// (0 = fragmentation off, the pre-fragmentation behavior) and records
// query latency quantiles next to the ring's message sizing — the
// trade-off curve the paper sweeps, reproduced on real data movement.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/tpch"
)

// FragRun is one fragment-size setting of the sweep.
type FragRun struct {
	FragmentRows int   `json:"fragment_rows"` // 0 = off
	Fragments    int   `json:"fragments"`     // fragments of lineitem.l_shipdate
	RegionBytes  int   `json:"region_bytes"`  // ring message limit == RDMA region sizing
	MaxHopBytes  int64 `json:"max_hop_bytes"` // largest data message observed
	HopBytes     int64 `json:"hop_bytes"`     // total ring data traffic during the run
	Queries      int   `json:"queries"`
	P50Micros    int64 `json:"p50_us"`
	P99Micros    int64 `json:"p99_us"`
}

// FragResult is the whole sweep.
type FragResult struct {
	LineitemRows int       `json:"lineitem_rows"`
	Nodes        int       `json:"nodes"`
	Runs         []FragRun `json:"runs"`
}

// FragmentSweep runs the granularity sweep: a TPC-H database with the
// given lineitem row count partitioned over a live ring of nodes, the
// Q6-style selective aggregate fired queries times per setting, one
// ring per FragmentRows setting.
func FragmentSweep(rows, nodes, queries int, fragRows []int, seed int64) (*FragResult, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(rows), seed)
	res := &FragResult{LineitemRows: db.Rows("lineitem"), Nodes: nodes}
	for _, fr := range fragRows {
		run, err := fragRun(db, nodes, queries, fr)
		if err != nil {
			return nil, fmt.Errorf("fragment sweep (rows=%d): %w", fr, err)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

func fragRun(db *tpch.DB, nodes, queries, fragRows int) (FragRun, error) {
	cfg := live.DefaultConfig()
	cfg.FragmentRows = fragRows
	// The sweep measures circulation granularity: disable the hot-set
	// cache so every query's pins actually ride the ring (with it on,
	// repeat queries skip circulation and the latency column would
	// measure the cache instead — that trade-off has its own sweep,
	// dcbench cache), and disable hop batching, which would coalesce the
	// fragments back into large messages (that trade-off is the dcbench
	// hop sweep — this one is its unbatched baseline).
	cfg.CacheBytes = 0
	cfg.HopBatchBytes = 0
	ring, err := live.NewRing(nodes, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		return FragRun{}, err
	}
	defer ring.Close()

	lat := make([]time.Duration, 0, queries)
	for i := 0; i < queries; i++ {
		start := time.Now()
		rs, err := ring.Node(i % nodes).ExecSQL(tpch.Q6ishSQL)
		if err != nil {
			return FragRun{}, err
		}
		if rs.NumRows() != 1 {
			return FragRun{}, fmt.Errorf("bad result: %d rows", rs.NumRows())
		}
		lat = append(lat, time.Since(start))
	}
	// MaxHopBytes is structural by now: answering the queries required
	// every requested fragment to complete at least one hop, so the
	// largest message size has been observed; later sends only repeat
	// known sizes. HopBytes is a snapshot of a still-rotating ring —
	// give in-flight send goroutines a short settle so the total
	// reflects the work the queries caused (settleHopBytes, shared with
	// the cache sweep), then read both.
	hopBytes := settleHopBytes(ring)
	frags, _ := ring.Fragments("lineitem.l_shipdate")
	return FragRun{
		FragmentRows: fragRows,
		Fragments:    len(frags),
		RegionBytes:  ring.MaxMessage(),
		MaxHopBytes:  ring.MaxHopBytes(),
		HopBytes:     hopBytes,
		Queries:      queries,
		P50Micros:    quantileMicros(lat, 0.50),
		P99Micros:    quantileMicros(lat, 0.99),
	}, nil
}

func (r *FragResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fragment granularity sweep — lineitem %d rows over %d nodes\n", r.LineitemRows, r.Nodes)
	fmt.Fprintf(&b, "%12s %10s %12s %13s %12s %10s %10s\n",
		"frag_rows", "fragments", "region_B", "max_hop_B", "hop_B", "p50_us", "p99_us")
	for _, run := range r.Runs {
		name := fmt.Sprint(run.FragmentRows)
		if run.FragmentRows == 0 {
			name = "off"
		}
		fmt.Fprintf(&b, "%12s %10d %12d %13d %12d %10d %10d\n",
			name, run.Fragments, run.RegionBytes, run.MaxHopBytes, run.HopBytes,
			run.P50Micros, run.P99Micros)
	}
	return b.String()
}

// Gate enforces the fragmentation invariants on the recorded runs: the
// unfragmented baseline (FragmentRows 0, when present) must dwarf every
// fragmented setting's max hop by at least the fragment ratio floor,
// and a fragmented run over a splittable column must actually have
// split it. The bounds are the same for the -short smoke.
func (r *FragResult) Gate(short bool) error {
	var base *FragRun
	for i := range r.Runs {
		if r.Runs[i].FragmentRows == 0 {
			base = &r.Runs[i]
		}
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		if run.FragmentRows == 0 {
			continue
		}
		wantFrags := (r.LineitemRows + run.FragmentRows - 1) / run.FragmentRows
		if run.Fragments != wantFrags {
			return fmt.Errorf("FragmentRows=%d: %d fragments, want %d",
				run.FragmentRows, run.Fragments, wantFrags)
		}
		if base != nil && wantFrags >= 8 && run.MaxHopBytes*8 > base.MaxHopBytes {
			return fmt.Errorf("FragmentRows=%d: max hop %d vs unfragmented %d — want ≥8× reduction",
				run.FragmentRows, run.MaxHopBytes, base.MaxHopBytes)
		}
	}
	return nil
}
