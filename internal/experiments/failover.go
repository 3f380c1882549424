package experiments

// Kill-and-recover sweep: the end-to-end measurement behind the elastic
// membership layer. A replicated ring is served over the network query
// service, concurrent clients hammer it through dcclient, and one node
// is killed mid-run. The sweep records what the membership layer
// promises: zero incorrect answers (every post-kill result fingerprints
// identically to the pre-kill reference), every fragment re-owned from
// its replica, and recovery bounded by a small multiple of the failure
// detector's death timeout. Unlike the unit tests, the whole path is
// exercised through TCP — detection, promotion, ring splice, client
// failover onto survivors — so the recorded times are what an
// application would actually observe.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dcclient"
	"repro/internal/live"
	"repro/internal/membership"
	"repro/internal/server"
	"repro/internal/tpch"
)

// FailoverRun is one ring size of the kill-and-recover sweep.
type FailoverRun struct {
	Nodes         int   `json:"nodes"`
	Victim        int   `json:"victim"`
	Replicas      int   `json:"replicas"`
	HeartbeatMs   int64 `json:"heartbeat_ms"`
	DeadTimeoutMs int64 `json:"dead_timeout_ms"`
	OK            int64 `json:"ok"`
	Rejected      int64 `json:"rejected"`    // admission rejections (IsTemporary)
	Failed        int64 `json:"failed"`      // hard query failures
	Incorrect     int64 `json:"incorrect"`   // fingerprint mismatches vs reference
	DetectMs      int64 `json:"detect_ms"`   // kill → death declared on a survivor
	ReownMs       int64 `json:"reown_ms"`    // kill → every fragment re-owned
	FirstOKMs     int64 `json:"first_ok_ms"` // kill → first fully post-kill correct answer
	Reowned       bool  `json:"reowned"`
	Failovers     int64 `json:"failovers"`
	Promotions    int64 `json:"promotions"`
	LostFrags     int64 `json:"lost_frags"`
	P50Micros     int64 `json:"p50_us"`
	P99Micros     int64 `json:"p99_us"`
}

// FailoverResult is the whole sweep.
type FailoverResult struct {
	LineitemRows int           `json:"lineitem_rows"`
	Clients      int           `json:"clients"`
	Queries      int           `json:"queries"` // per ring size
	Runs         []FailoverRun `json:"runs"`
}

// failoverHeartbeat is the detector tuning the sweep runs with: a
// 300 ms death verdict, roomy enough that the recovery gate (2× the
// death timeout, enforced by Gate and run by `dcbench failover`) holds
// on a loaded CI box.
func failoverHeartbeat() membership.Config {
	return membership.Config{
		HeartbeatInterval: 50 * time.Millisecond,
		SuspectAfter:      3,
		DeadAfter:         6,
	}
}

// FailoverSweep runs the kill-and-recover sweep: for each ring size, a
// TPC-H database with the given lineitem row count is served with one
// replica per fragment, `clients` concurrent network clients fire
// `queries` queries total, and one node is killed a third of the way
// through. Every answer is fingerprinted against the pre-kill
// reference.
func FailoverSweep(rows, clients, queries int, sizes []int, seed int64) (*FailoverResult, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(rows), seed)
	res := &FailoverResult{
		LineitemRows: db.Rows("lineitem"),
		Clients:      clients,
		Queries:      queries,
	}
	for _, nodes := range sizes {
		run, err := failoverRun(db, nodes, clients, queries)
		if err != nil {
			return nil, fmt.Errorf("failover sweep (%d nodes): %w", nodes, err)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

func failoverRun(db *tpch.DB, nodes, clients, queries int) (FailoverRun, error) {
	hb := failoverHeartbeat()
	cfg := live.DefaultConfig()
	cfg.Replicas = 1
	cfg.Heartbeat = hb
	cfg.Core.ResendTimeout = 100 * time.Millisecond
	ring, err := live.NewRing(nodes, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		return FailoverRun{}, err
	}
	defer ring.Close()
	srv, err := server.Serve(ring, server.DefaultConfig())
	if err != nil {
		return FailoverRun{}, err
	}
	defer srv.Close()
	targets := srv.Addrs()
	victim := nodes / 2

	// The pre-kill reference every later answer must reproduce.
	ref, err := referenceAnswer(targets[0])
	if err != nil {
		return FailoverRun{}, err
	}

	run := FailoverRun{
		Nodes:         nodes,
		Victim:        victim,
		Replicas:      cfg.Replicas,
		HeartbeatMs:   hb.HeartbeatInterval.Milliseconds(),
		DeadTimeoutMs: hb.DeadTimeout().Milliseconds(),
	}
	var (
		next      int64
		completed int64
		killNanos int64 // kill instant (UnixNano); 0 while the victim lives
		firstOK   int64 = -1
		latMu     sync.Mutex
		lats      []time.Duration
		wg        sync.WaitGroup
	)

	// The assassin: wait until a third of the budget has completed, so
	// the kill lands mid-stream with clients bound to every node, then
	// take the victim down and watch the ring recover.
	detectCh := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for atomic.LoadInt64(&completed) < int64(queries/3) {
			time.Sleep(time.Millisecond)
		}
		killT := time.Now()
		atomic.StoreInt64(&killNanos, killT.UnixNano())
		srv.KillNode(victim)
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if ring.MembershipStats().Dead > 0 {
				run.DetectMs = time.Since(killT).Milliseconds()
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		for time.Now().Before(deadline) {
			if ring.UnownedFragments() == 0 && ring.MembershipStats().Dead > 0 {
				run.ReownMs = time.Since(killT).Milliseconds()
				run.Reowned = true
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		close(detectCh)
	}()

	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := dcclient.Dial(targets[w%len(targets)])
			if err != nil {
				atomic.AddInt64(&run.Failed, 1)
				return
			}
			defer cl.Close()
			for {
				if atomic.AddInt64(&next, 1) > int64(queries) {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				start := time.Now()
				rs, err := cl.Query(ctx, tpch.Q6ishSQL)
				lat := time.Since(start)
				cancel()
				atomic.AddInt64(&completed, 1)
				switch {
				case err == nil:
					if fingerprintRows(rs.Rows()) != ref {
						atomic.AddInt64(&run.Incorrect, 1)
						continue
					}
					atomic.AddInt64(&run.OK, 1)
					latMu.Lock()
					lats = append(lats, lat)
					latMu.Unlock()
					// First correct answer whose whole lifetime is
					// post-kill: the client-visible recovery point.
					if kn := atomic.LoadInt64(&killNanos); kn != 0 && start.UnixNano() >= kn {
						ms := (time.Now().UnixNano() - kn) / int64(time.Millisecond)
						for {
							cur := atomic.LoadInt64(&firstOK)
							if (cur >= 0 && cur <= ms) || atomic.CompareAndSwapInt64(&firstOK, cur, ms) {
								break
							}
						}
					}
				case dcclient.IsTemporary(err):
					atomic.AddInt64(&run.Rejected, 1)
				default:
					atomic.AddInt64(&run.Failed, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	<-detectCh

	run.FirstOKMs = firstOK
	s := ring.MembershipStats()
	run.Failovers = s.Failovers
	run.Promotions = s.Promotions
	run.LostFrags = s.LostFrags
	run.P50Micros = quantileMicros(lats, 0.50)
	run.P99Micros = quantileMicros(lats, 0.99)
	return run, nil
}

// referenceAnswer runs the workload query once against a healthy ring
// and fingerprints the result.
func referenceAnswer(addr string) (string, error) {
	cl, err := dcclient.Dial(addr)
	if err != nil {
		return "", err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rs, err := cl.Query(ctx, tpch.Q6ishSQL)
	if err != nil {
		return "", fmt.Errorf("reference query: %w", err)
	}
	return fingerprintRows(rs.Rows()), nil
}

// fingerprintRows reduces a result to an order-insensitive key (row
// order is not part of the result contract).
func fingerprintRows(rows [][]any) string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = fmt.Sprint(row)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func (r *FailoverResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failover sweep — lineitem %d rows, %d clients, %d queries per ring, kill node mid-run\n",
		r.LineitemRows, r.Clients, r.Queries)
	fmt.Fprintf(&b, "%6s %7s %8s %10s %9s %11s %10s %10s %6s %5s %10s %10s\n",
		"nodes", "victim", "ok", "incorrect", "failed", "detect_ms", "reown_ms", "firstok_ms", "promo", "lost", "p50_us", "p99_us")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%6d %7d %8d %10d %9d %11d %10d %10d %6d %5d %10d %10d\n",
			run.Nodes, run.Victim, run.OK, run.Incorrect, run.Failed,
			run.DetectMs, run.ReownMs, run.FirstOKMs,
			run.Promotions, run.LostFrags, run.P50Micros, run.P99Micros)
	}
	return b.String()
}

// Gate enforces the failover invariants on every recorded run: zero
// incorrect answers, zero hard failures, every fragment re-owned from
// its replica with nothing lost, and recovery (both re-ownership and
// the first fully post-kill answer) inside gateFactor death timeouts.
// The bounds are the same for the -short smoke.
func (r *FailoverResult) Gate(short bool) error {
	// gateFactor bounds recovery as a multiple of the failure detector's
	// death timeout: detection itself costs one timeout, so promotion,
	// splice, and client failover together get at most one more.
	const gateFactor = 2

	for i := range r.Runs {
		run := &r.Runs[i]
		if run.Incorrect != 0 {
			return fmt.Errorf("%d nodes: %d incorrect answers — correctness is absolute", run.Nodes, run.Incorrect)
		}
		if run.Failed != 0 {
			return fmt.Errorf("%d nodes: %d hard query failures", run.Nodes, run.Failed)
		}
		if !run.Reowned || run.LostFrags != 0 {
			return fmt.Errorf("%d nodes: fragments not recovered (reowned=%v, lost=%d)",
				run.Nodes, run.Reowned, run.LostFrags)
		}
		if run.Promotions == 0 {
			return fmt.Errorf("%d nodes: kill produced no promotions — the victim owned nothing?", run.Nodes)
		}
		budget := gateFactor * run.DeadTimeoutMs
		if run.ReownMs > budget {
			return fmt.Errorf("%d nodes: re-ownership took %dms, budget %dms (%d× death timeout)",
				run.Nodes, run.ReownMs, budget, gateFactor)
		}
		if run.FirstOKMs < 0 || run.FirstOKMs > budget {
			return fmt.Errorf("%d nodes: first post-kill answer at %dms, budget %dms (%d× death timeout)",
				run.Nodes, run.FirstOKMs, budget, gateFactor)
		}
	}
	return nil
}
