package experiments

// Grow-the-ring sweep: the end-to-end measurement behind runtime ring
// growth. A replicated ring is served over the network query service,
// concurrent clients hammer it through dcclient, and a new node joins
// mid-run — admission handshake, link splice-in, and state transfer all
// while answers keep flowing. The sweep records what the join protocol
// promises: zero incorrect answers (every result fingerprints
// identically to the pre-join reference), the newcomer ends up owning
// its fair share and serving queries itself, and the admission phase is
// a vanishing fraction of the total join (the transfer dominates).
// Latency quantiles are split at the join-completion instant so a
// grown ring's tail can be compared against the same-size ring of the
// next run before *its* join.

import (
	"context"
	"fmt"
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

// JoinRun is one ring size of the grow-the-ring sweep: a ring of Nodes
// nodes serving queries while node Nodes (the newcomer) joins.
type JoinRun struct {
	Nodes    int `json:"nodes"` // pre-join ring size
	Joined   int `json:"joined"`
	Replicas int `json:"replicas"`

	OK        int64 `json:"ok"`
	Rejected  int64 `json:"rejected"`  // admission rejections (IsTemporary)
	Failed    int64 `json:"failed"`    // hard query failures
	Incorrect int64 `json:"incorrect"` // fingerprint mismatches vs reference

	Share      int   `json:"share"`    // fragments planned for the newcomer
	Migrated   int   `json:"migrated"` // fragments it actually owns
	Skipped    int   `json:"skipped"`
	SpliceMs   int64 `json:"splice_ms"`   // admission + link splice-in
	TransferMs int64 `json:"transfer_ms"` // state transfer + rebalancing
	TotalMs    int64 `json:"total_ms"`
	Converged  bool  `json:"converged"` // every fragment has a live owner
	Failovers  int64 `json:"failovers"` // death verdicts during the run (must be 0)

	NewcomerOKMs int64 `json:"newcomer_ok_ms"` // join end -> newcomer's first correct answer

	PreP50Micros  int64 `json:"pre_p50_us"` // queries started before the join completed
	PreP99Micros  int64 `json:"pre_p99_us"`
	PostP50Micros int64 `json:"post_p50_us"` // queries started on the grown ring
	PostP99Micros int64 `json:"post_p99_us"`
}

// JoinResult is the whole sweep.
type JoinResult struct {
	LineitemRows int       `json:"lineitem_rows"`
	Clients      int       `json:"clients"`
	Queries      int       `json:"queries"` // per ring size
	Runs         []JoinRun `json:"runs"`
}

// JoinSweep runs the grow-the-ring sweep: for each pre-join ring size,
// a TPC-H database with the given lineitem row count is served with one
// replica per fragment, `clients` concurrent network clients fire
// `queries` queries total, and a new node joins a third of the way
// through. Every answer is fingerprinted against the pre-join
// reference.
func JoinSweep(rows, clients, queries int, sizes []int, seed int64) (*JoinResult, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(rows), seed)
	res := &JoinResult{
		LineitemRows: db.Rows("lineitem"),
		Clients:      clients,
		Queries:      queries,
	}
	for _, nodes := range sizes {
		run, err := joinRun(db, nodes, clients, queries)
		if err != nil {
			return nil, fmt.Errorf("join sweep (%d nodes): %w", nodes, err)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// joinHeartbeat is the detector tuning the grow-the-ring sweep runs
// with. Unlike the failover sweep — an otherwise idle ring where fast
// detection is the whole point — this ring spends the entire run under
// concurrent client load moving multi-megabyte fragments, and on a
// small CI box a node mid-marshal can go genuinely silent for hundreds
// of milliseconds without being dead. The death verdict (3 s) is sized
// to out-wait those stalls: the sweep gates on Failovers == 0, so a
// false verdict here doesn't degrade gracefully, it fails the run.
func joinHeartbeat() membership.Config {
	return membership.Config{
		HeartbeatInterval: 100 * time.Millisecond,
		SuspectAfter:      10,
		DeadAfter:         30,
	}
}

func joinRun(db *tpch.DB, nodes, clients, queries int) (JoinRun, error) {
	cfg := live.DefaultConfig()
	cfg.Replicas = 1
	cfg.Heartbeat = joinHeartbeat()
	cfg.Core.ResendTimeout = 100 * time.Millisecond
	ring, err := live.NewRing(nodes, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		return JoinRun{}, err
	}
	defer ring.Close()
	srv, err := server.Serve(ring, server.DefaultConfig())
	if err != nil {
		return JoinRun{}, err
	}
	defer srv.Close()
	targets := srv.Addrs()

	// The pre-join reference every later answer must reproduce.
	ref, err := referenceAnswer(targets[0])
	if err != nil {
		return JoinRun{}, err
	}

	run := JoinRun{Nodes: nodes, Replicas: cfg.Replicas, NewcomerOKMs: -1}
	var (
		next        int64
		completed   int64
		joinedNanos int64 // join-completion instant (UnixNano); 0 while joining
		joinErr     error
		latMu       sync.Mutex
		preLats     []time.Duration
		postLats    []time.Duration
		wg          sync.WaitGroup
	)

	// The sponsor: wait until a third of the budget has completed, so
	// the join lands mid-stream with clients bound to every original
	// node, then grow the ring and bring the newcomer's listener up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for atomic.LoadInt64(&completed) < int64(queries/3) {
			time.Sleep(time.Millisecond)
		}
		rep, err := ring.Join()
		if err != nil {
			joinErr = fmt.Errorf("join: %w", err)
			return
		}
		run.Joined = rep.Node
		run.Share = rep.Share
		run.Migrated = rep.Migrated
		run.Skipped = rep.Skipped
		run.SpliceMs = rep.SpliceMs
		run.TransferMs = rep.TransferMs
		run.TotalMs = rep.TotalMs
		joinEnd := time.Now()
		atomic.StoreInt64(&joinedNanos, joinEnd.UnixNano())
		run.Converged = ring.UnownedFragments() == 0

		addr, err := srv.ServeNode(rep.Node)
		if err != nil {
			joinErr = fmt.Errorf("serve joined node: %w", err)
			return
		}
		// The newcomer must answer for itself, over the wire, with the
		// data it just received.
		cl, err := dcclient.Dial(addr)
		if err != nil {
			joinErr = fmt.Errorf("dial joined node: %w", err)
			return
		}
		defer cl.Close()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			rs, err := cl.Query(ctx, tpch.Q6ishSQL)
			cancel()
			if err == nil && fingerprintRows(rs.Rows()) == ref {
				run.NewcomerOKMs = time.Since(joinEnd).Milliseconds()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		joinErr = fmt.Errorf("joined node never answered correctly")
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
					jn := atomic.LoadInt64(&joinedNanos)
					latMu.Lock()
					if jn != 0 && start.UnixNano() >= jn {
						postLats = append(postLats, lat)
					} else {
						preLats = append(preLats, lat)
					}
					latMu.Unlock()
				case dcclient.IsTemporary(err):
					atomic.AddInt64(&run.Rejected, 1)
				default:
					atomic.AddInt64(&run.Failed, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	if joinErr != nil {
		return run, joinErr
	}

	// A join sweep with deaths in it measured the failover path, not the
	// join path: any verdict here was false (nobody is killed), and the
	// ring silently fell back on replicas for correctness. Surface it so
	// the driver can gate on zero.
	run.Failovers = ring.MembershipStats().Failovers

	run.PreP50Micros = quantileMicros(preLats, 0.50)
	run.PreP99Micros = quantileMicros(preLats, 0.99)
	run.PostP50Micros = quantileMicros(postLats, 0.50)
	run.PostP99Micros = quantileMicros(postLats, 0.99)
	return run, nil
}

func (r *JoinResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Join sweep — lineitem %d rows, %d clients, %d queries per ring, join node mid-run\n",
		r.LineitemRows, r.Clients, r.Queries)
	fmt.Fprintf(&b, "%6s %8s %10s %7s %6s %9s %9s %11s %8s %11s %10s %11s %11s %9s\n",
		"nodes", "ok", "incorrect", "failed", "share", "migrated", "splice_ms", "transfer_ms", "total_ms", "newok_ms", "pre_p99", "post_p99", "converged", "failovers")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%6d %8d %10d %7d %6d %9d %9d %11d %8d %11d %10d %11d %11v %9d\n",
			run.Nodes, run.OK, run.Incorrect, run.Failed, run.Share, run.Migrated,
			run.SpliceMs, run.TransferMs, run.TotalMs, run.NewcomerOKMs,
			run.PreP99Micros, run.PostP99Micros, run.Converged, run.Failovers)
	}
	return b.String()
}

// Gate enforces the join invariants on every recorded run: zero
// incorrect answers, zero hard failures, the newcomer owning its full
// planned share and answering for itself, a converged catalog, no
// false failovers, and join completion dominated by the transfer. The
// bounds are the same for the -short smoke.
func (r *JoinResult) Gate(short bool) error {
	// gateFactor bounds the whole join as a multiple of its transfer
	// phase: admission and splice-in must stay cheap next to moving data.
	// totalFloorMs absorbs fixed costs on runs whose transfer rounds to
	// nearly nothing.
	const (
		gateFactor   = 2
		totalFloorMs = 250
	)
	// p99Factor bounds a grown ring's post-join tail against the same-size
	// ring of the next run before its join (run N's post state and run
	// N+1's pre state are both an (N+1)-node ring under identical load).
	const p99Factor = 2

	for i := range r.Runs {
		run := &r.Runs[i]
		if run.Incorrect != 0 {
			return fmt.Errorf("%d nodes: %d incorrect answers — correctness is absolute", run.Nodes, run.Incorrect)
		}
		if run.Failed != 0 {
			return fmt.Errorf("%d nodes: %d hard query failures", run.Nodes, run.Failed)
		}
		if run.Migrated == 0 || run.Skipped != 0 || run.Migrated != run.Share {
			return fmt.Errorf("%d nodes: newcomer owns %d of its %d-fragment share (%d skipped)",
				run.Nodes, run.Migrated, run.Share, run.Skipped)
		}
		if !run.Converged {
			return fmt.Errorf("%d nodes: catalog did not converge after the join", run.Nodes)
		}
		if run.Failovers != 0 {
			// Nobody is killed in this sweep: any death verdict was a
			// false positive, and the ring quietly papered over it with
			// replica promotion. The numbers above would still look green
			// — which is exactly why this is a hard failure.
			return fmt.Errorf("%d nodes: %d false failovers during the run", run.Nodes, run.Failovers)
		}
		if run.NewcomerOKMs < 0 {
			return fmt.Errorf("%d nodes: the newcomer never answered a query correctly", run.Nodes)
		}
		budget := gateFactor*run.TransferMs + totalFloorMs
		if run.TotalMs > budget {
			return fmt.Errorf("%d nodes: join took %dms, budget %dms (%d× the %dms transfer + %dms floor)",
				run.Nodes, run.TotalMs, budget, gateFactor, run.TransferMs, totalFloorMs)
		}
		// Run N's grown ring and run N+1's pre-join ring are the same
		// size under the same load: the grown ring's tail must not
		// degrade against a ring born at that size.
		for j := range r.Runs {
			peer := &r.Runs[j]
			if peer.Nodes != run.Nodes+1 || run.PostP99Micros == 0 || peer.PreP99Micros == 0 {
				continue
			}
			if run.PostP99Micros > p99Factor*peer.PreP99Micros {
				return fmt.Errorf("%d->%d join: post-join p99 %dus vs %dus on a born-%d-node ring (budget %d×)",
					run.Nodes, run.Nodes+1, run.PostP99Micros, peer.PreP99Micros, peer.Nodes, p99Factor)
			}
		}
	}
	return nil
}
