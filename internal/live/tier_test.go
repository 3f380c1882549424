package live

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/netsim"
)

// tierTestConfig is a router sized for unit tests: small rings, a fast
// scanner.
func tierTestConfig() RouterConfig {
	rc := DefaultRouterConfig()
	rc.HotNodes, rc.ColdNodes = 2, 3
	rc.TierScan = 10 * time.Millisecond
	return rc
}

// tierTestColumns builds n single-fragment int columns and their
// checksums.
func tierTestColumns(n, rows int) (map[string]*bat.BAT, map[string]int64) {
	cols := make(map[string]*bat.BAT, n)
	sums := make(map[string]int64, n)
	for k := 0; k < n; k++ {
		name := fmt.Sprintf("t.c%d", k)
		vals := make([]int64, rows)
		var sum int64
		for i := range vals {
			vals[i] = int64(k*rows + i)
			sum += vals[i]
		}
		cols[name] = bat.MakeInts("c", vals)
		sums[name] = sum
	}
	return cols, sums
}

func tierFetchSum(t *testing.T, rtr *Router, name string) int64 {
	t.Helper()
	b, err := rtr.Fetch(name)
	if err != nil {
		t.Fatalf("fetch %s: %v", name, err)
	}
	var sum int64
	for i := 0; i < b.Len(); i++ {
		sum += b.Tail().Int(i)
	}
	return sum
}

// TestTierScanPromoteDemote drives the scanner's threshold path: a
// hammered cold column crosses PromoteHeat and moves to the hot ring;
// once the interest stops its heat decays through DemoteHeat and it
// moves back. The answer must be identical before, between, and after
// the migrations.
func TestTierScanPromoteDemote(t *testing.T) {
	cols, sums := tierTestColumns(3, 256)
	rc := tierTestConfig()
	rc.FlashCrowdHits = 1 << 30 // scan path only
	rc.PromoteHeat = 1.5
	rc.DemoteHeat = 0.3
	rtr, err := NewRouter(cols, nil, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer rtr.Close()

	const name = "t.c0"
	id, ok := rtr.Tier(ColdRing).BATID(name)
	if !ok {
		t.Fatal("no BATID for t.c0")
	}
	if rtr.HomeOf(id) != ColdRing {
		t.Fatal("column not cold-homed at start")
	}

	for i := 0; i < 20; i++ {
		if got := tierFetchSum(t, rtr, name); got != sums[name] {
			t.Fatalf("pre-promotion sum %d, want %d", got, sums[name])
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for rtr.HomeOf(id) != HotRing {
		if time.Now().After(deadline) {
			t.Fatalf("never promoted (heat %.2f)", rtr.heatLevel(id))
		}
		tierFetchSum(t, rtr, name)
		time.Sleep(time.Millisecond)
	}
	if got := tierFetchSum(t, rtr, name); got != sums[name] {
		t.Fatalf("post-promotion sum %d, want %d", got, sums[name])
	}

	// Silence: heat halves every scan until the demotion threshold.
	deadline = time.Now().Add(3 * time.Second)
	for rtr.HomeOf(id) != ColdRing {
		if time.Now().After(deadline) {
			t.Fatalf("never demoted (heat %.2f)", rtr.heatLevel(id))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := tierFetchSum(t, rtr, name); got != sums[name] {
		t.Fatalf("post-demotion sum %d, want %d", got, sums[name])
	}
	s := rtr.TierStats()
	if s.Promotions < 1 || s.Demotions < 1 {
		t.Fatalf("expected scan migrations, got %+v", s)
	}
}

// TestTierFlashPromote exercises the flash-crowd path: FlashCrowdHits
// accesses of a cold column inside one scan window promote it without
// waiting for the scanner's threshold.
func TestTierFlashPromote(t *testing.T) {
	cols, sums := tierTestColumns(3, 256)
	rc := tierTestConfig()
	rc.PromoteHeat = 1e9 // flash path only
	rtr, err := NewRouter(cols, nil, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer rtr.Close()

	const name = "t.c1"
	id, _ := rtr.Tier(ColdRing).BATID(name)
	var wg sync.WaitGroup
	for i := 0; i < rc.FlashCrowdHits; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := tierFetchSum(t, rtr, name); got != sums[name] {
				t.Errorf("burst sum %d, want %d", got, sums[name])
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for rtr.HomeOf(id) != HotRing {
		if time.Now().After(deadline) {
			t.Fatal("flash crowd never promoted")
		}
		time.Sleep(100 * time.Microsecond)
	}
	wg.Wait()
	if got := tierFetchSum(t, rtr, name); got != sums[name] {
		t.Fatalf("post-flash sum %d, want %d", got, sums[name])
	}
	// The counters land after the migration's drain completes — poll.
	var s TierStats
	for deadline = time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if s = rtr.TierStats(); s.FlashPromotions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no flash promotion recorded: %+v", s)
		}
	}
	if s.LastFlashPromoteMicros <= 0 {
		t.Fatalf("flash latency not recorded: %+v", s)
	}
}

// TestTierMigrationChurnConsistency is the migration property test:
// fragments forced hot↔cold in a tight loop, under concurrent
// UpdateColumn writers and concurrent readers. Every answer must be a
// whole committed version — all rows carry the same generation (no
// mixed-tier merge) and the generation is at least the last one
// committed before the read began (no stale version). Run under -race
// this also proves the install→flip→drain→release ordering publishes
// safely.
func TestTierMigrationChurnConsistency(t *testing.T) {
	const (
		columns = 4
		rows    = 256
		runFor  = 600 * time.Millisecond
	)
	// Uniform generation-0 seed: a reader that legitimately sees the
	// base version under MVCC (its fetch began before the first commit
	// landed) must still pass the all-rows-equal check.
	cols := map[string]*bat.BAT{}
	for k := 0; k < columns; k++ {
		cols[fmt.Sprintf("t.c%d", k)] = bat.MakeInts("c", make([]int64, rows))
	}
	rc := tierTestConfig()
	rc.FlashCrowdHits = 1 << 30
	rc.PromoteHeat = 1e9 // forced flips only (scan demotions may still fire)
	rtr, err := NewRouter(cols, nil, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer rtr.Close()

	names := make([]string, columns)
	ids := make([]core.BATID, columns)
	for k := range names {
		names[k] = fmt.Sprintf("t.c%d", k)
		id, ok := rtr.Tier(ColdRing).BATID(names[k])
		if !ok {
			t.Fatalf("no BATID for %s", names[k])
		}
		ids[k] = id
	}

	var (
		committed [columns]int64
		flips     int64
		failed    atomic.Value // first error string
		wg        sync.WaitGroup
	)
	fail := func(format string, args ...any) {
		failed.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	stop := time.Now().Add(runFor)

	// Writers: one per column, committing generation g as a column of
	// rows identical values.
	for k := 0; k < columns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var g int64
			for time.Now().Before(stop) && failed.Load() == nil {
				g++
				gen := g
				_, err := rtr.UpdateColumn(names[k], func(*bat.BAT) *bat.BAT {
					vals := make([]int64, rows)
					for i := range vals {
						vals[i] = gen
					}
					return bat.MakeInts("c", vals)
				})
				if err != nil {
					fail("update %s gen %d: %v", names[k], gen, err)
					return
				}
				atomic.StoreInt64(&committed[k], gen)
				time.Sleep(500 * time.Microsecond)
			}
		}(k)
	}

	// Flippers: one per column, forcing the fragment back and forth
	// between the tiers through the real migration path.
	for k := 0; k < columns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(stop) && failed.Load() == nil {
				from := rtr.HomeOf(ids[k])
				to := HotRing
				if from == HotRing {
					to = ColdRing
				}
				if rtr.markMigrating(ids[k]) {
					if rtr.migrateTier(ids[k], from, to) {
						atomic.AddInt64(&flips, 1)
					}
					rtr.unmarkMigrating(ids[k])
				}
				time.Sleep(time.Millisecond)
			}
		}(k)
	}

	// Readers: whole committed versions only, never older than what was
	// committed before the read began.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 1))
			for time.Now().Before(stop) && failed.Load() == nil {
				k := rng.Intn(columns)
				pre := atomic.LoadInt64(&committed[k])
				done := make(chan struct{})
				go func() {
					select {
					case <-done:
					case <-time.After(10 * time.Second):
						var sb strings.Builder
						fmt.Fprintf(&sb, "WATCHDOG fetch %s (id %d) stalled: home=%v pending=%+v\n",
							names[k], ids[k], rtr.HomeOf(ids[k]), rtr.TierStats())
						for _, rid := range []RingID{HotRing, ColdRing} {
							rg := rtr.Tier(rid)
							for _, n := range rg.nodeList() {
								n.mu.Lock()
								owns := n.rt.Owns(ids[k])
								hasReq := n.rt.HasRequest(ids[k])
								_, inStore := n.store[ids[k]]
								_, inTransit := n.transit[ids[k]]
								ver := n.versions[ids[k]]
								n.mu.Unlock()
								fmt.Fprintf(&sb, "  ring=%v node=%d owns=%v req=%v store=%v transit=%v ver=%d\n",
									rid, n.id, owns, hasReq, inStore, inTransit, ver)
							}
						}
						panic(sb.String())
					}
				}()
				b, err := rtr.Fetch(names[k])
				close(done)
				if err != nil {
					fail("fetch %s: %v", names[k], err)
					return
				}
				if b.Len() != rows {
					fail("%s: %d rows, want %d", names[k], b.Len(), rows)
					return
				}
				gen := b.Tail().Int(0)
				for i := 1; i < b.Len(); i++ {
					if b.Tail().Int(i) != gen {
						counts := map[int64]int{}
						for j := 0; j < b.Len(); j++ {
							counts[b.Tail().Int(j)]++
						}
						fail("%s: mixed generations at row %d: %v (home %v, committed %d)",
							names[k], i, counts, rtr.HomeOf(ids[k]), atomic.LoadInt64(&committed[k]))
						return
					}
				}
				if gen < pre {
					fail("%s: stale generation %d, committed %d before read",
						names[k], gen, pre)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	if msg := failed.Load(); msg != nil {
		t.Fatal(msg)
	}
	if atomic.LoadInt64(&flips) == 0 {
		t.Fatal("no forced migrations completed; the property was not exercised")
	}
}

// TestTierKillDuringMigration injects a transfer delay through the
// TierFaults hook and kills the source owner inside the window: the
// migration must abort cleanly (home unchanged), the cold ring's
// failover must recover the fragment from its replica, and a retried
// migration must then succeed with the right bytes.
func TestTierKillDuringMigration(t *testing.T) {
	cols, sums := tierTestColumns(2, 256)
	faults := netsim.NewFaults()
	rc := tierTestConfig()
	rc.FlashCrowdHits = 1 << 30
	rc.PromoteHeat = 1e9
	rc.TierFaults = faults
	rc.Cold.Replicas = 1
	rc.Cold.Heartbeat = fastHeartbeat()
	rtr, err := NewRouter(cols, nil, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer rtr.Close()

	const name = "t.c0"
	cold := rtr.Tier(ColdRing)
	id, _ := cold.BATID(name)
	victim := cold.ownerOf(id)
	if victim == nil {
		t.Fatal("no cold owner")
	}

	// Let heartbeats flow so the detectors have evidence before the
	// kill.
	time.Sleep(100 * time.Millisecond)

	faults.SetDelay(400 * time.Millisecond)
	done := make(chan bool, 1)
	go func() {
		ok := false
		if rtr.markMigrating(id) {
			ok = rtr.migrateTier(id, ColdRing, HotRing)
			rtr.unmarkMigrating(id)
		}
		done <- ok
	}()
	time.Sleep(50 * time.Millisecond) // inside the injected delay
	cold.KillNode(int(victim.id))
	if ok := <-done; ok {
		t.Fatal("migration claimed success with its source killed mid-transfer")
	}
	if rtr.HomeOf(id) != ColdRing {
		t.Fatal("aborted migration flipped the home anyway")
	}

	// Failover re-owns the fragment from its replica; the column must
	// answer again.
	deadline := time.Now().Add(5 * time.Second)
	for cold.UnownedFragments() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("failover never re-owned %d fragments", cold.UnownedFragments())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := tierFetchSum(t, rtr, name); got != sums[name] {
		t.Fatalf("post-failover sum %d, want %d", got, sums[name])
	}

	// With the fault cleared the retried migration lands.
	faults.SetDelay(0)
	promoted := false
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rtr.markMigrating(id) {
			ok := rtr.migrateTier(id, ColdRing, HotRing)
			rtr.unmarkMigrating(id)
			if ok {
				promoted = true
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !promoted {
		t.Fatal("retried migration never succeeded after failover")
	}
	if rtr.HomeOf(id) != HotRing {
		t.Fatal("retried migration did not flip the home")
	}
	if got := tierFetchSum(t, rtr, name); got != sums[name] {
		t.Fatalf("post-retry sum %d, want %d", got, sums[name])
	}
}
