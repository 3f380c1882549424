package main

import (
	"time"
)

// layerMetrics fills the per-layer metrics of a traced run from the
// counter diff over the window, the decomposition spans and the probes.
// A layer the workload does not exercise reads 0 (the router rows on a
// single ring, for instance).
func layerMetrics(m map[string]metric, st *stack, lr *loopResult, before, after counters, elapsed time.Duration, lt layerTimes, p probes) {
	q := float64(lr.attempted())
	perQuery := func(d int64) float64 { return float64(d) / q }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}

	m["minisql.compile_us"] = metric{us(lt.mean(lt.compile)), "us"}
	m["dcopt.rewrite_us"] = metric{us(lt.mean(lt.rewrite)), "us"}
	m["mal.exec_ms"] = metric{ms(lt.mean(lt.mal)), "ms"}

	m["live.exec_ms"] = metric{ms(lt.mean(lt.exec)), "ms"}
	m["live.pin_overhead_ms"] = metric{ms(lt.mean(lt.pinOverhead)), "ms"}
	m["live.fetch_hit_us"] = metric{us(meanDur(p.fetchHit)), "us"}
	m["live.fetch_miss_ms"] = metric{ms(meanDur(p.fetchMiss)), "ms"}
	hits, misses := after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses
	m["live.cache_hit_rate"] = metric{ratio(hits, hits+misses), "ratio"}
	m["live.ring_waits_per_query"] = metric{perQuery(after.cache.RingWaits - before.cache.RingWaits), "count"}
	m["live.ring_wait_ms_per_query"] = metric{perQuery(after.cache.RingWaitNanos-before.cache.RingWaitNanos) / 1e6, "ms"}
	m["live.cache_stale"] = metric{float64(after.cache.Stale - before.cache.Stale), "count"}
	m["live.revolution_ms"] = metric{ms(st.query.RevolutionTime()), "ms"}

	msgs := after.hop.Msgs - before.hop.Msgs
	bytes := after.hop.Bytes - before.hop.Bytes
	m["live.hop_msgs_per_query"] = metric{perQuery(msgs), "count"}
	m["live.hop_bytes_per_query"] = metric{perQuery(bytes), "B"}
	m["live.hop_fill"] = metric{ratio(after.hop.Frags-before.hop.Frags, msgs), "count"}
	m["live.hop_gbps"] = metric{float64(bytes) / elapsed.Seconds() / 1e9, "GB/s"}
	m["live.hop_parked"] = metric{float64(after.hop.Parked), "count"}
	m["live.hop_unparked"] = metric{float64(after.hop.Unparked - before.hop.Unparked), "count"}
	m["live.pool_waits"] = metric{float64(after.hop.PoolWaits - before.hop.PoolWaits), "count"}

	m["core.requests_per_query"] = metric{perQuery(after.requests - before.requests), "count"}
	m["core.resends_per_query"] = metric{perQuery(after.resends - before.resends), "count"}
	m["core.bats_parked"] = metric{float64(after.parked - before.parked), "count"}
	m["core.bats_unparked"] = metric{float64(after.unparked - before.unparked), "count"}

	m["rdma.syscalls_per_hop"] = metric{ratio(after.hop.WireSyscalls-before.hop.WireSyscalls, msgs), "count"}

	m["bat.marshal_gbps"] = metric{p.marshalGBps, "GB/s"}
	m["bat.unmarshal_us"] = metric{us(p.unmarshal), "us"}

	m["server.encode_us"] = metric{us(lt.mean(lt.enc)), "us"}
	m["server.overhead_ms"] = metric{ms(lt.mean(lt.serverOverhead)), "ms"}
	planHits, planMisses := after.planHits-before.planHits, after.planMisses-before.planMisses
	m["server.plan_cache_hit_rate"] = metric{ratio(planHits, planHits+planMisses), "ratio"}
	m["server.rejected"] = metric{float64(after.rejected - before.rejected), "count"}
	m["dcclient.decode_us"] = metric{us(lt.mean(lt.dec)), "us"}

	m["router.promotions"] = metric{float64(after.tier.Promotions - before.tier.Promotions), "count"}
	m["router.demotions"] = metric{float64(after.tier.Demotions - before.tier.Demotions), "count"}
	m["router.flash_promotions"] = metric{float64(after.tier.FlashPromotions - before.tier.FlashPromotions), "count"}
	m["router.remote_fetches"] = metric{float64(after.tier.RemoteFetches - before.tier.RemoteFetches), "count"}
	m["router.hot_fetch_us"] = metric{us(meanDur(p.hotFetch)), "us"}
	m["router.cold_fetch_ms"] = metric{ms(meanDur(p.coldFetch)), "ms"}
	m["router.hot_rev_us"] = metric{float64(after.tier.HotRevolutionMicros), "us"}
	m["router.cold_rev_us"] = metric{float64(after.tier.ColdRevolutionMicros), "us"}

	m["runtime.alloc_kb_per_query"] = metric{perQuery(int64(after.mem.TotalAlloc-before.mem.TotalAlloc)) / 1024, "KiB"}
	m["runtime.gc_pause_ms"] = metric{float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, "ms"}

	m["trace.unexplained_ms"] = metric{ms(lt.mean(lt.unexpl)), "ms"}
	var on, off []sample
	for _, s := range lr.samples {
		if s.traced {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	overhead := 0.0
	if base := percentileMs(off, 0.5); base > 0 && len(on) > 0 {
		overhead = 100 * (percentileMs(on, 0.5) - base) / base
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}
}
