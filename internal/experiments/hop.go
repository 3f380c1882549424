package experiments

// Hop-batching sweep: the live-ring measurement behind the batched hop
// transport. Fragmentation (the granularity sweep, frag.go) bought
// small flexible circulation units, but paid for them in wire messages:
// every fragment forward is one messenger send. The hop scheduler
// coalesces co-resident outbound fragments into one batch envelope per
// neighbour hop, putting the interconnect back in the few-large-
// transfers regime the paper's RDMA ring assumes — without giving up
// fragment granularity at the runtime layer. The sweep runs the same
// selective aggregate over the fragmented TPC-H ring at several
// HopBatchBytes budgets (0 = batching off, the byte-identical
// pre-batching ring, directly comparable to frag.go's runs) and records
// hop-message counts, batch fill, and query latency quantiles: the
// messages-vs-latency trade the batching claims to win.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/tpch"
)

// HopRun is one HopBatchBytes setting of the sweep.
type HopRun struct {
	HopBatchBytes int      `json:"hop_batch_bytes"` // 0 = batching off
	Fragments     int      `json:"fragments"`       // fragments of lineitem.l_shipdate
	Msgs          int64    `json:"hop_msgs"`        // data wire messages sent
	Singles       int64    `json:"hop_singles"`     // one-fragment messages
	Batches       int64    `json:"hop_batches"`     // multi-fragment envelopes
	Frags         int64    `json:"hop_frags"`       // fragments forwarded
	MeanFill      float64  `json:"mean_fill"`       // Frags / Msgs
	Fill          [8]int64 `json:"fill_hist"`       // 1,2,3-4,...,33-64,>64
	HopBytes      int64    `json:"hop_bytes"`       // total ring data traffic
	MaxMsg        int64    `json:"max_msg_bytes"`   // largest data message
	ParkedTotal   int64    `json:"parked_total"`    // LOI-pacing park events
	Unparked      int64    `json:"unparked"`        // re-admissions on interest
	PoolWaits     int64    `json:"pool_waits"`      // send-region pool stalls
	Queries       int      `json:"queries"`
	P50Micros     int64    `json:"p50_us"`
	P99Micros     int64    `json:"p99_us"`
}

// HopResult is the whole sweep.
type HopResult struct {
	LineitemRows int      `json:"lineitem_rows"`
	Nodes        int      `json:"nodes"`
	FragmentRows int      `json:"fragment_rows"`
	Runs         []HopRun `json:"runs"`
}

// HopSweep runs the hop-batching sweep: a TPC-H database with the given
// lineitem row count partitioned over a live ring of nodes at a fixed
// fragment granularity, the Q6-style selective aggregate fired queries
// times per HopBatchBytes setting, one ring per setting so every run's
// counters start at zero.
func HopSweep(rows, nodes, queries, fragRows int, budgets []int, seed int64) (*HopResult, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(rows), seed)
	res := &HopResult{
		LineitemRows: db.Rows("lineitem"),
		Nodes:        nodes,
		FragmentRows: fragRows,
	}
	for _, budget := range budgets {
		run, err := hopRun(db, nodes, queries, fragRows, budget)
		if err != nil {
			return nil, fmt.Errorf("hop sweep (batch=%d): %w", budget, err)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

func hopRun(db *tpch.DB, nodes, queries, fragRows, budget int) (HopRun, error) {
	cfg := live.DefaultConfig()
	cfg.FragmentRows = fragRows
	cfg.HopBatchBytes = budget
	// The sweep measures hop transport: disable the hot-set cache so
	// every query's pins ride the ring (as the granularity sweep does —
	// budget 0 here reproduces its circulation byte for byte).
	cfg.CacheBytes = 0
	ring, err := live.NewRing(nodes, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		return HopRun{}, err
	}
	defer ring.Close()

	lat := make([]time.Duration, 0, queries)
	for i := 0; i < queries; i++ {
		start := time.Now()
		rs, err := ring.Node(i % nodes).ExecSQL(tpch.Q6ishSQL)
		if err != nil {
			return HopRun{}, err
		}
		if rs.NumRows() != 1 {
			return HopRun{}, fmt.Errorf("bad result: %d rows", rs.NumRows())
		}
		lat = append(lat, time.Since(start))
	}
	// Let in-flight sends settle (shared helper) so the message counters
	// reflect the work the queries caused, then snapshot the transport.
	settleHopBytes(ring)
	hs := ring.HopStats()
	frags, _ := ring.Fragments("lineitem.l_shipdate")
	fill := 0.0
	if hs.Msgs > 0 {
		fill = float64(hs.Frags) / float64(hs.Msgs)
	}
	return HopRun{
		HopBatchBytes: budget,
		Fragments:     len(frags),
		Msgs:          hs.Msgs,
		Singles:       hs.Singles,
		Batches:       hs.Batches,
		Frags:         hs.Frags,
		MeanFill:      fill,
		Fill:          hs.Fill,
		HopBytes:      hs.Bytes,
		MaxMsg:        hs.MaxMsg,
		ParkedTotal:   hs.ParkedTotal,
		Unparked:      hs.Unparked,
		PoolWaits:     hs.PoolWaits,
		Queries:       queries,
		P50Micros:     quantileMicros(lat, 0.50),
		P99Micros:     quantileMicros(lat, 0.99),
	}, nil
}

func (r *HopResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hop batching sweep — lineitem %d rows over %d nodes, %d-row fragments\n",
		r.LineitemRows, r.Nodes, r.FragmentRows)
	fmt.Fprintf(&b, "%12s %10s %10s %10s %8s %12s %11s %10s %10s\n",
		"batch_bytes", "hop_msgs", "hop_frags", "fill", "parked", "hop_B", "max_msg_B", "p50_us", "p99_us")
	for _, run := range r.Runs {
		name := fmt.Sprint(run.HopBatchBytes)
		if run.HopBatchBytes == 0 {
			name = "off"
		}
		fmt.Fprintf(&b, "%12s %10d %10d %10.2f %8d %12d %11d %10d %10d\n",
			name, run.Msgs, run.Frags, run.MeanFill, run.ParkedTotal,
			run.HopBytes, run.MaxMsg, run.P50Micros, run.P99Micros)
	}
	return b.String()
}

// Gate enforces the batching invariants on the recorded runs: the
// unbatched baseline (HopBatchBytes 0, when present) must send all
// singles, and every batched setting must cut its message count by at
// least gateRatio while actually filling multi-fragment envelopes. The
// bounds are the same for the -short smoke.
func (r *HopResult) Gate(short bool) error {
	// gateRatio is the hop-message reduction floor the batched run must
	// clear against the unbatched baseline.
	const gateRatio = 4

	var base *HopRun
	for i := range r.Runs {
		if r.Runs[i].HopBatchBytes == 0 {
			base = &r.Runs[i]
		}
	}
	if base != nil && (base.Batches != 0 || base.Singles != base.Msgs) {
		return fmt.Errorf("unbatched baseline sent batches: %d batches, %d singles of %d msgs",
			base.Batches, base.Singles, base.Msgs)
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		if run.HopBatchBytes == 0 {
			continue
		}
		var multi int64
		for b := 1; b < len(run.Fill); b++ {
			multi += run.Fill[b]
		}
		if run.Batches == 0 || multi == 0 {
			return fmt.Errorf("HopBatchBytes=%d: empty multi-fragment fill histogram %v",
				run.HopBatchBytes, run.Fill)
		}
		if base != nil && run.Msgs*gateRatio > base.Msgs {
			return fmt.Errorf("HopBatchBytes=%d: %d hop messages vs unbatched %d — want ≥%d× reduction",
				run.HopBatchBytes, run.Msgs, base.Msgs, gateRatio)
		}
	}
	return nil
}
