package experiments

// Wire-backend sweep: the measurement behind the io_uring transport.
// The hop scheduler (hop.go sweep) cut wire messages per query; this
// sweep cuts kernel crossings per wire message. It runs the same
// fragmented TPC-H workload over a real-socket ring once per backend —
// the classic write/read tcp path and the registered-buffer io_uring
// path — and records latency quantiles next to the syscall-layer
// counters (enters, submits, CQE batch fill). The figure that matters
// is syscalls per hop message: io_uring's submit-and-wait enters and
// multi-frame reaps must cover the same traffic with measurably fewer
// kernel crossings, at equal answers and no worse tail latency.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/rdma"
	"repro/internal/tpch"
)

// UringRun is one backend's pass over the workload.
type UringRun struct {
	Backend        string   `json:"backend"`
	Fallback       string   `json:"fallback,omitempty"` // why auto degraded (empty: it didn't)
	Queries        int      `json:"queries"`
	HopMsgs        int64    `json:"hop_msgs"`         // data wire messages sent
	HopFrags       int64    `json:"hop_frags"`        // fragments forwarded
	HopBytes       int64    `json:"hop_bytes"`        // total ring data traffic
	WireSyscalls   int64    `json:"wire_syscalls"`    // enters (uring) / read+write calls (tcp)
	WireSubmits    int64    `json:"wire_submits"`     // submission batches / gather writes
	SyscallsPerHop float64  `json:"syscalls_per_hop"` // WireSyscalls / HopMsgs — the gated figure
	CqeBatch       [8]int64 `json:"cqe_batch_hist"`   // completions per enter: 1,2,3-4,...,>64
	P50Micros      int64    `json:"p50_us"`
	P99Micros      int64    `json:"p99_us"`
	ResultDigest   string   `json:"result_digest"` // FNV over every query's rows, in firing order
}

// UringResult is the whole sweep.
type UringResult struct {
	LineitemRows int        `json:"lineitem_rows"`
	Nodes        int        `json:"nodes"`
	FragmentRows int        `json:"fragment_rows"`
	Supported    bool       `json:"uring_supported"`
	SupportNote  string     `json:"uring_note,omitempty"` // probe's reason when unsupported
	Match        bool       `json:"results_match"`        // every backend produced identical rows
	Runs         []UringRun `json:"runs"`
}

// UringSweep runs the wire-backend comparison: a TPC-H database with
// the given lineitem row count partitioned over a TCP-socket ring, the
// Q6-style selective aggregate fired queries times per backend, one
// ring per backend so counters start at zero. Backends unavailable on
// the running kernel are skipped (recorded in Supported/SupportNote),
// never silently downgraded — a run labeled "uring" really ran uring.
func UringSweep(rows, nodes, queries, fragRows int, backends []string, seed int64) (*UringResult, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(rows), seed)
	res := &UringResult{
		LineitemRows: db.Rows("lineitem"),
		Nodes:        nodes,
		FragmentRows: fragRows,
		Match:        true,
	}
	res.Supported, res.SupportNote = rdma.UringSupported()
	for _, backend := range backends {
		if backend == "uring" && !res.Supported {
			continue
		}
		run, err := uringRun(db, nodes, queries, fragRows, backend)
		if err != nil {
			return nil, fmt.Errorf("uring sweep (backend=%s): %w", backend, err)
		}
		res.Runs = append(res.Runs, run)
	}
	for i := 1; i < len(res.Runs); i++ {
		if res.Runs[i].ResultDigest != res.Runs[0].ResultDigest {
			res.Match = false
		}
	}
	return res, nil
}

func uringRun(db *tpch.DB, nodes, queries, fragRows int, backend string) (UringRun, error) {
	cfg := live.DefaultConfig()
	cfg.Transport = live.TCP
	cfg.Backend = backend
	cfg.FragmentRows = fragRows
	// The sweep measures the wire layer: disable the hot-set cache so
	// every query's pins ride the ring and every hop crosses a socket.
	cfg.CacheBytes = 0
	ring, err := live.NewRing(nodes, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		return UringRun{}, err
	}
	defer ring.Close()

	digest := fnv.New64a()
	lat := make([]time.Duration, 0, queries)
	for i := 0; i < queries; i++ {
		start := time.Now()
		rs, err := ring.Node(i % nodes).ExecSQL(tpch.Q6ishSQL)
		if err != nil {
			return UringRun{}, err
		}
		lat = append(lat, time.Since(start))
		if rs.NumRows() != 1 {
			return UringRun{}, fmt.Errorf("bad result: %d rows", rs.NumRows())
		}
		for _, row := range rs.Rows() {
			fmt.Fprintln(digest, row...)
		}
	}
	settleHopBytes(ring)
	hs := ring.HopStats()
	if hs.Backend != backend {
		return UringRun{}, fmt.Errorf("ring ran backend %q, asked for %q (fallback: %s)",
			hs.Backend, backend, hs.BackendFallback)
	}
	perHop := 0.0
	if hs.Msgs > 0 {
		perHop = float64(hs.WireSyscalls) / float64(hs.Msgs)
	}
	return UringRun{
		Backend:        backend,
		Fallback:       hs.BackendFallback,
		Queries:        queries,
		HopMsgs:        hs.Msgs,
		HopFrags:       hs.Frags,
		HopBytes:       hs.Bytes,
		WireSyscalls:   hs.WireSyscalls,
		WireSubmits:    hs.WireSubmits,
		SyscallsPerHop: perHop,
		CqeBatch:       hs.CqeBatch,
		P50Micros:      quantileMicros(lat, 0.50),
		P99Micros:      quantileMicros(lat, 0.99),
		ResultDigest:   fmt.Sprintf("%016x", digest.Sum64()),
	}, nil
}

// Run returns the recorded pass for backend, or nil.
func (r *UringResult) Run(backend string) *UringRun {
	for i := range r.Runs {
		if r.Runs[i].Backend == backend {
			return &r.Runs[i]
		}
	}
	return nil
}

func (r *UringResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Wire backend sweep — lineitem %d rows over %d nodes, %d-row fragments\n",
		r.LineitemRows, r.Nodes, r.FragmentRows)
	if !r.Supported {
		fmt.Fprintf(&b, "  (io_uring unavailable: %s)\n", r.SupportNote)
	}
	fmt.Fprintf(&b, "%8s %10s %12s %12s %12s %14s %10s %10s %18s\n",
		"backend", "hop_msgs", "hop_bytes", "syscalls", "submits", "syscalls/hop", "p50_us", "p99_us", "digest")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%8s %10d %12d %12d %12d %14.2f %10d %10d %18s\n",
			run.Backend, run.HopMsgs, run.HopBytes, run.WireSyscalls, run.WireSubmits,
			run.SyscallsPerHop, run.P50Micros, run.P99Micros, run.ResultDigest)
	}
	if ur := r.Run("uring"); ur != nil {
		var enters int64
		for _, v := range ur.CqeBatch {
			enters += v
		}
		if enters > 0 {
			fmt.Fprintf(&b, "  uring CQE batch fill (completions per enter, buckets 1,2,3-4,...,>64): %v\n",
				ur.CqeBatch)
		}
	}
	fmt.Fprintf(&b, "  results match across backends: %v\n", r.Match)
	return b.String()
}

// Gate enforces the backend invariants: identical answers, a real
// syscalls-per-hop win, and no tail-latency regression beyond slack.
// A sweep on a kernel without io_uring has nothing to gate.
func (r *UringResult) Gate(short bool) error {
	// The syscalls-per-hop reduction floor the uring pass must clear
	// against the tcp baseline. The full run sustains ring circulation
	// long enough for the messenger's pipelined send window to fold runs
	// of hop envelopes into linked submission chains — one io_uring_enter
	// covering many queued messages — and is held to the headline ≥2×.
	// The -short smoke run is dominated by warmup and short bursts where
	// no run of messages ever co-queues, which pins the backend at its
	// unbatched structural floor: ~1 enter to send + ~1 enter to receive
	// per message, against tcp's 1 gather write + ~2 reads ≈ a 1.5×
	// reduction. Short is therefore held to a directional ≥1.3× — enough
	// to catch a backend that stopped winning at all, without demanding
	// batching from a workload that cannot produce it.
	const (
		gateSyscallRatioFull  = 2.0
		gateSyscallRatioShort = 1.3
	)
	// The uring p99 may exceed the tcp p99 by at most the slack. On the
	// -short run a single scheduler hiccup lands entirely in one query's
	// tail, so the tight full-run slack would make the smoke a coin flip.
	const (
		p99SlackFull  = 1.25
		shortP99Slack = 3.0
	)
	ratio, p99slack := gateSyscallRatioFull, p99SlackFull
	if short {
		ratio, p99slack = gateSyscallRatioShort, shortP99Slack
	}

	if !r.Match {
		return fmt.Errorf("backends returned different answers: %+v", r.Runs)
	}
	tcp, uring := r.Run("tcp"), r.Run("uring")
	if tcp == nil {
		return fmt.Errorf("sweep recorded no tcp baseline")
	}
	if uring == nil {
		if r.Supported {
			return fmt.Errorf("io_uring supported but the sweep recorded no uring run")
		}
		return nil // unsupported kernel: baseline-only snapshot, skip
	}
	if uring.Fallback != "" {
		return fmt.Errorf("uring run fell back: %s", uring.Fallback)
	}
	if uring.SyscallsPerHop*ratio > tcp.SyscallsPerHop {
		return fmt.Errorf("syscalls/hop: uring %.2f vs tcp %.2f — want ≥%.1f× reduction",
			uring.SyscallsPerHop, tcp.SyscallsPerHop, ratio)
	}
	if float64(uring.P99Micros) > p99slack*float64(tcp.P99Micros) {
		return fmt.Errorf("p99: uring %dµs vs tcp %dµs — exceeds %.2fx slack",
			uring.P99Micros, tcp.P99Micros, p99slack)
	}
	return nil
}
