package bat

import (
	"math/rand"
	"testing"
)

// BenchmarkBAT* is the kernel microbenchmark suite the CI smoke-runs
// with -benchtime=1x. The "generic" sub-benchmarks exercise the boxed
// fallback path in generic.go so the typed/boxed gap stays measurable:
//
//	go test ./internal/bat -bench=BenchmarkBAT -benchmem
//
// Acceptance targets: typed unsorted Select and hash Join >= 2x the
// boxed baseline at 1M rows; sorted Select is O(log n + k), i.e. nearly
// size-independent for a fixed k (compare the /1M and /4M sorted subs).

const benchRows = 1 << 20 // ~1M

func benchIntBAT(n, domain int) *BAT {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(domain))
	}
	return MakeInts("bench", vals)
}

func BenchmarkBATSelect1M(b *testing.B) {
	bb := benchIntBAT(benchRows, 1000)
	lo := &Bound{Value: int64(100), Inclusive: true}
	hi := &Bound{Value: int64(199), Inclusive: true} // ~10% selectivity
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bb.Select(lo, hi)
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bb.selectGeneric(lo, hi)
		}
	})
}

// BenchmarkBATSelectSorted verifies the O(log n + k) claim: k is pinned
// at ~1000 rows while n quadruples, so ns/op should stay nearly flat.
func BenchmarkBATSelectSorted(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1M", 1 << 20}, {"4M", 1 << 22}} {
		sorted := benchIntBAT(size.n, size.n).SortT(false)
		lo := &Bound{Value: int64(size.n / 2), Inclusive: true}
		hi := &Bound{Value: int64(size.n/2 + 1000), Inclusive: false}
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := sorted.Select(lo, hi); got.Len() > 1100 {
					b.Fatal("unexpected selectivity")
				}
			}
		})
	}
}

// BenchmarkBATSelectDense compares a dense OID tail (pure arithmetic)
// against the same range materialized.
func BenchmarkBATSelectDense(b *testing.B) {
	dense := New("dense", DenseColumn(0, benchRows), DenseColumn(0, benchRows))
	oids := make([]Oid, benchRows)
	for i := range oids {
		oids[i] = Oid(i)
	}
	mat := New("mat", DenseColumn(0, benchRows), OidColumn(oids))
	mat.Tail().SetSorted(true)
	lo := &Bound{Value: Oid(benchRows / 2), Inclusive: true}
	hi := &Bound{Value: Oid(benchRows/2 + 1000), Inclusive: false}
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dense.Select(lo, hi)
		}
	})
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mat.Select(lo, hi)
		}
	})
}

func BenchmarkBATJoin1M(b *testing.B) {
	l := benchIntBAT(benchRows, 100_000)
	r := benchIntBAT(100_000, 100_000)
	rr := r.Reverse()
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Join(rr)
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.joinGeneric(rr)
		}
	})
}

func BenchmarkBATFetchJoin1M(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := benchIntBAT(benchRows, 1000)
	pos := make([]Oid, benchRows)
	for i := range pos {
		pos[i] = Oid(rng.Intn(benchRows))
	}
	pb := MakeOids("pos", pos)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Join(vals)
	}
}

func BenchmarkBATGroupedSum1M(b *testing.B) {
	keys := benchIntBAT(benchRows, 100)
	vals := benchIntBAT(benchRows, 1000)
	b.Run("unsorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			groups, _ := keys.GroupIDs()
			GroupedSum(groups, vals)
		}
	})
	sortedKeys := keys.SortT(false)
	b.Run("sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			groups, _ := sortedKeys.GroupIDs()
			GroupedSum(groups, vals)
		}
	})
}

func BenchmarkBATUnion1M(b *testing.B) {
	l := benchIntBAT(benchRows/2, 1000)
	r := benchIntBAT(benchRows/2, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Union(r)
	}
}

func BenchmarkBATSlice(b *testing.B) {
	bb := benchIntBAT(benchRows, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Slice(1000, benchRows-1000)
	}
}

// kernelSizes are the row counts of the property-driven kernel
// benchmarks: the served benchmark's 60K lineitem rows and 1M.
var kernelSizes = []struct {
	name string
	n    int
}{{"60K", 60_000}, {"1M", benchRows}}

// sortedOidSubset returns a sorted, mirrored OID list holding each of
// [0, n) with probability keep: the shape a select leaves behind and a
// conjunction semijoins.
func sortedOidSubset(rng *rand.Rand, n int, keep float64) *BAT {
	var oids []Oid
	for i := 0; i < n; i++ {
		if rng.Float64() < keep {
			oids = append(oids, Oid(i))
		}
	}
	c := OidColumn(oids)
	c.SetSorted(true)
	return New("subset", c, c)
}

// BenchmarkBATSelectUnsorted is a ~50%-selective range select over
// random (unsorted) data: the case where a branchy scan mispredicts
// about every other row.
func BenchmarkBATSelectUnsorted(b *testing.B) {
	for _, size := range kernelSizes {
		bb := benchIntBAT(size.n, 1000)
		fb := MakeFloats("f", tailFloats(bb))
		lo := &Bound{Value: int64(250), Inclusive: true}
		hi := &Bound{Value: int64(750), Inclusive: false}
		b.Run("int/"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bb.Select(lo, hi)
			}
		})
		b.Run("float/"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fb.Select(lo, hi)
			}
		})
	}
}

// BenchmarkBATSemijoinSorted semijoins two sorted OID lists, the shape
// of a conjunctive predicate's intersection step.
func BenchmarkBATSemijoinSorted(b *testing.B) {
	for _, size := range kernelSizes {
		rng := rand.New(rand.NewSource(3))
		l, r := sortedOidSubset(rng, size.n, 0.7), sortedOidSubset(rng, size.n, 0.85)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Semijoin(r)
			}
		})
	}
}

// BenchmarkBATJoinCompact joins an unsorted int foreign key against an
// unsorted build side whose keys span a compact range (four rows per
// key, like lineitem's orderkey), the direct-address path.
func BenchmarkBATJoinCompact(b *testing.B) {
	for _, size := range kernelSizes {
		keys := size.n / 4
		build := benchIntBAT(size.n, keys).Reverse()
		rng := rand.New(rand.NewSource(4))
		probe := make([]int64, keys/10)
		for i := range probe {
			probe[i] = int64(rng.Intn(keys))
		}
		pb := MakeInts("probe", probe)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pb.Join(build)
			}
		})
	}
}

// BenchmarkBATGroupLowCard groups a 3-value string key and refines it
// by a 2-value one, the shape of TPC-H Q1's group by returnflag,
// linestatus: the small-domain path.
func BenchmarkBATGroupLowCard(b *testing.B) {
	for _, size := range kernelSizes {
		rng := rand.New(rand.NewSource(5))
		flags, status := make([]string, size.n), make([]string, size.n)
		for i := range flags {
			flags[i] = []string{"A", "N", "R"}[rng.Intn(3)]
			status[i] = []string{"F", "O"}[rng.Intn(2)]
		}
		fb, sb := MakeStrs("flag", flags), MakeStrs("status", status)
		b.Run("GroupIDs/"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fb.GroupIDs()
			}
		})
		groups, _ := fb.GroupIDs()
		b.Run("GroupDerive/"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GroupDerive(groups, sb)
			}
		})
	}
}
