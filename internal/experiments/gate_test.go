package experiments

import (
	"testing"

	"repro/internal/live"
)

// gateCase is one synthetic result for a suite's gate: edit turns the
// suite's passing baseline into the case, and pass says whether the
// gate must accept it. Every failing case trips exactly one branch; the
// passing edits sit on the bounds themselves.
type gateCase[R any] struct {
	name  string
	short bool
	edit  func(*R)
	pass  bool
}

func runGateCases[R any](t *testing.T, base func() *R, gate func(*R, bool) error, cases []gateCase[R]) {
	t.Helper()
	for _, c := range cases {
		r := base()
		if c.edit != nil {
			c.edit(r)
		}
		err := gate(r, c.short)
		if c.pass && err != nil {
			t.Errorf("%s: gate rejected a passing result: %v", c.name, err)
		}
		if !c.pass && err == nil {
			t.Errorf("%s: gate accepted a failing result", c.name)
		}
	}
}

func TestFragGate(t *testing.T) {
	// 1000 rows at 100 per fragment: 10 fragments, so the 8× bound applies.
	base := func() *FragResult {
		return &FragResult{LineitemRows: 1000, Runs: []FragRun{
			{FragmentRows: 0, Fragments: 1, MaxHopBytes: 8000},
			{FragmentRows: 100, Fragments: 10, MaxHopBytes: 1000},
			{FragmentRows: 500, Fragments: 2, MaxHopBytes: 8000}, // <8 fragments: no ratio bound
		}}
	}
	runGateCases(t, base, (*FragResult).Gate, []gateCase[FragResult]{
		{name: "pass at 8x", pass: true},
		{name: "pass short", short: true, pass: true},
		{name: "no baseline", edit: func(r *FragResult) { r.Runs = r.Runs[1:] }, pass: true},
		{name: "fragment count", edit: func(r *FragResult) { r.Runs[1].Fragments = 9 }},
		{name: "under 8x", edit: func(r *FragResult) { r.Runs[1].MaxHopBytes = 1001 }},
		{name: "under 8x short", short: true, edit: func(r *FragResult) { r.Runs[1].MaxHopBytes = 1001 }},
	})
}

func TestCacheGate(t *testing.T) {
	base := func() *CacheResult {
		return &CacheResult{Runs: []CacheRun{
			{CacheBytes: 0, PinP99Micros: 500, RepeatHopBytes: 1000},
			{CacheBytes: 64 << 20, Hits: 10, PinP99Micros: 100, RepeatHopBytes: 0},
		}}
	}
	runGateCases(t, base, (*CacheResult).Gate, []gateCase[CacheResult]{
		{name: "pass at 5x", pass: true},
		{name: "pass short", short: true, pass: true},
		{name: "no repeat traffic off", edit: func(r *CacheResult) { r.Runs[0].RepeatHopBytes = 0; r.Runs[1].RepeatHopBytes = 5 }, pass: true},
		{name: "never hit", edit: func(r *CacheResult) { r.Runs[1].Hits = 0 }},
		{name: "under 5x", edit: func(r *CacheResult) { r.Runs[1].PinP99Micros = 101 }},
		{name: "ring traffic kept", edit: func(r *CacheResult) { r.Runs[1].RepeatHopBytes = 1000 }},
	})
}

func TestHopGate(t *testing.T) {
	base := func() *HopResult {
		return &HopResult{Runs: []HopRun{
			{HopBatchBytes: 0, Msgs: 400, Singles: 400},
			{HopBatchBytes: 1 << 20, Msgs: 100, Batches: 10, Fill: [8]int64{90, 10}},
		}}
	}
	runGateCases(t, base, (*HopResult).Gate, []gateCase[HopResult]{
		{name: "pass at 4x", pass: true},
		{name: "pass short", short: true, pass: true},
		{name: "baseline batched", edit: func(r *HopResult) { r.Runs[0].Batches = 1 }},
		{name: "baseline not all singles", edit: func(r *HopResult) { r.Runs[0].Singles = 399 }},
		{name: "no batches", edit: func(r *HopResult) { r.Runs[1].Batches = 0 }},
		{name: "no multi fill", edit: func(r *HopResult) { r.Runs[1].Fill = [8]int64{100} }},
		{name: "under 4x", edit: func(r *HopResult) { r.Runs[1].Msgs = 101 }},
	})
}

func TestFailoverGate(t *testing.T) {
	// 300 ms death timeout: recovery budget 2× = 600 ms.
	base := func() *FailoverResult {
		return &FailoverResult{Runs: []FailoverRun{{
			Nodes: 3, DeadTimeoutMs: 300, Reowned: true, Promotions: 2,
			ReownMs: 600, FirstOKMs: 600,
		}}}
	}
	runGateCases(t, base, (*FailoverResult).Gate, []gateCase[FailoverResult]{
		{name: "pass at budget", pass: true},
		{name: "pass short", short: true, pass: true},
		{name: "incorrect", edit: func(r *FailoverResult) { r.Runs[0].Incorrect = 1 }},
		{name: "failed", edit: func(r *FailoverResult) { r.Runs[0].Failed = 1 }},
		{name: "not reowned", edit: func(r *FailoverResult) { r.Runs[0].Reowned = false }},
		{name: "lost fragments", edit: func(r *FailoverResult) { r.Runs[0].LostFrags = 1 }},
		{name: "no promotions", edit: func(r *FailoverResult) { r.Runs[0].Promotions = 0 }},
		{name: "slow reown", edit: func(r *FailoverResult) { r.Runs[0].ReownMs = 601 }},
		{name: "never answered", edit: func(r *FailoverResult) { r.Runs[0].FirstOKMs = -1 }},
		{name: "slow first answer", edit: func(r *FailoverResult) { r.Runs[0].FirstOKMs = 601 }},
	})
}

func TestJoinGate(t *testing.T) {
	// Transfer 100 ms: join budget 2×100 + 250 = 450 ms. Run 0's grown
	// 4-node ring is held against run 1's born-4-node pre-join p99.
	base := func() *JoinResult {
		ok := JoinRun{Share: 5, Migrated: 5, Converged: true, NewcomerOKMs: 10,
			TransferMs: 100, TotalMs: 450, PreP99Micros: 100, PostP99Micros: 200}
		r := &JoinResult{Runs: []JoinRun{ok, ok}}
		r.Runs[0].Nodes, r.Runs[1].Nodes = 3, 4
		return r
	}
	runGateCases(t, base, (*JoinResult).Gate, []gateCase[JoinResult]{
		{name: "pass at budgets", pass: true},
		{name: "pass short", short: true, pass: true},
		{name: "incorrect", edit: func(r *JoinResult) { r.Runs[0].Incorrect = 1 }},
		{name: "failed", edit: func(r *JoinResult) { r.Runs[0].Failed = 1 }},
		{name: "nothing migrated", edit: func(r *JoinResult) { r.Runs[0].Migrated, r.Runs[0].Share = 0, 0 }},
		{name: "skipped", edit: func(r *JoinResult) { r.Runs[0].Skipped = 1 }},
		{name: "partial share", edit: func(r *JoinResult) { r.Runs[0].Migrated = 4 }},
		{name: "not converged", edit: func(r *JoinResult) { r.Runs[0].Converged = false }},
		{name: "false failover", edit: func(r *JoinResult) { r.Runs[0].Failovers = 1 }},
		{name: "newcomer silent", edit: func(r *JoinResult) { r.Runs[0].NewcomerOKMs = -1 }},
		{name: "slow join", edit: func(r *JoinResult) { r.Runs[0].TotalMs = 451 }},
		{name: "grown tail", edit: func(r *JoinResult) { r.Runs[0].PostP99Micros = 201 }},
	})
}

func TestUringGate(t *testing.T) {
	// tcp 4.0 syscalls/hop, p99 1000 µs. Full: uring ≤ 2.0/hop and
	// ≤ 1250 µs; short: ≤ 4/1.3 ≈ 3.08/hop and ≤ 3000 µs.
	base := func() *UringResult {
		return &UringResult{Supported: true, Match: true, Runs: []UringRun{
			{Backend: "tcp", SyscallsPerHop: 4, P99Micros: 1000},
			{Backend: "uring", SyscallsPerHop: 2, P99Micros: 1250},
		}}
	}
	uring := func(r *UringResult) *UringRun { return r.Run("uring") }
	runGateCases(t, base, (*UringResult).Gate, []gateCase[UringResult]{
		{name: "pass at full bounds", pass: true},
		{name: "pass at short bounds", short: true, edit: func(r *UringResult) {
			uring(r).SyscallsPerHop, uring(r).P99Micros = 3.0, 3000
		}, pass: true},
		{name: "unsupported kernel skips", edit: func(r *UringResult) {
			r.Supported, r.SupportNote, r.Runs = false, "ENOSYS", r.Runs[:1]
		}, pass: true},
		{name: "answers differ", edit: func(r *UringResult) { r.Match = false }},
		{name: "no tcp baseline", edit: func(r *UringResult) { r.Runs = r.Runs[1:] }},
		{name: "supported but no uring run", edit: func(r *UringResult) { r.Runs = r.Runs[:1] }},
		{name: "silent fallback", edit: func(r *UringResult) { uring(r).Fallback = "setup refused" }},
		{name: "under 2x", edit: func(r *UringResult) { uring(r).SyscallsPerHop = 2.1 }},
		{name: "under 1.3x short", short: true, edit: func(r *UringResult) { uring(r).SyscallsPerHop = 3.1 }},
		{name: "short ratio held to full", edit: func(r *UringResult) { uring(r).SyscallsPerHop = 3.0 }},
		{name: "p99 over 1.25x", edit: func(r *UringResult) { uring(r).P99Micros = 1251 }},
		{name: "p99 over 3x short", short: true, edit: func(r *UringResult) { uring(r).P99Micros = 3001 }},
		{name: "short slack held to full", edit: func(r *UringResult) { uring(r).P99Micros = 3000 }},
	})
}

func TestTierGate(t *testing.T) {
	base := func() *TierResult {
		return &TierResult{
			Stats:              live.TierStats{HotRevolutionMicros: 100, ColdRevolutionMicros: 1000},
			Tiered:             TierRun{HotServed: 5, HotP50Micros: 10, ColdP50Micros: 100},
			FlashProbed:        true,
			FlashPromoteMicros: 1000,
			FlashBoundMicros:   1000,
		}
	}
	gate := func(r *TierResult, _ bool) error { return r.Gate() }
	runGateCases(t, base, gate, []gateCase[TierResult]{
		{name: "pass at flash bound", pass: true},
		{name: "revolutions unmeasured, latency split", edit: func(r *TierResult) { r.Stats = live.TierStats{} }, pass: true},
		{name: "incorrect", edit: func(r *TierResult) { r.Baseline.Incorrect = 1 }},
		{name: "hot not faster", edit: func(r *TierResult) { r.Stats.HotRevolutionMicros = 1000 }},
		{name: "split not faster", edit: func(r *TierResult) { r.Stats = live.TierStats{}; r.Tiered.HotP50Micros = 100 }},
		{name: "no evidence", edit: func(r *TierResult) { r.Stats = live.TierStats{}; r.Tiered = TierRun{} }},
		{name: "flash not probed", edit: func(r *TierResult) { r.FlashProbed = false }},
		{name: "flash too slow", edit: func(r *TierResult) { r.FlashPromoteMicros = 1001 }},
	})
}
