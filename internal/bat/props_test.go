package bat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// --- property propagation -------------------------------------------------

func TestSelectPropagatesProperties(t *testing.T) {
	// Unsorted tail: head stays sorted (dense input head), tail does not.
	b := MakeInts("x", []int64{5, 1, 9, 3})
	got := b.Select(&Bound{Value: int64(2), Inclusive: true}, nil)
	if !got.Head().Sorted() {
		t.Error("select should keep a sorted head sorted")
	}
	if got.Tail().Sorted() {
		t.Error("unsorted tail must not be marked sorted after select")
	}

	// Sorted tail: result is a view, still sorted, head still dense.
	s := b.SortT(false).MarkH(0)
	sel := s.Select(&Bound{Value: int64(2), Inclusive: true}, &Bound{Value: int64(8), Inclusive: true})
	if !sel.Tail().Sorted() {
		t.Error("sorted tail must stay sorted after range select")
	}
	if !sel.Head().Dense() {
		t.Error("range select over a sorted tail should keep a dense head dense (O(1) view)")
	}
	if want := []int64{3, 5}; !reflect.DeepEqual(intsOf(sel), want) {
		t.Errorf("sorted select = %v, want %v", intsOf(sel), want)
	}
}

func TestSelectEqConstantTailSorted(t *testing.T) {
	b := MakeInts("x", []int64{2, 1, 2, 3, 2})
	got := b.SelectEq(int64(2))
	if got.Len() != 3 || !got.Tail().Sorted() {
		t.Errorf("point select result (len %d) should have a (constant) sorted tail", got.Len())
	}
}

func TestSortTPropagatesAndShortcuts(t *testing.T) {
	b := MakeInts("x", []int64{3, 1, 2})
	s := b.SortT(false)
	if !s.Tail().Sorted() {
		t.Fatal("SortT must set sorted")
	}
	// Sorting an already-sorted BAT is an O(1) view.
	allocs := testing.AllocsPerRun(100, func() { _ = s.SortT(false) })
	if allocs > 3 {
		t.Errorf("SortT on sorted input allocated %v objects; want a view", allocs)
	}
}

func TestReverseAndMarkPreserveProperties(t *testing.T) {
	b := MakeInts("x", []int64{1, 2, 3})
	b.Tail().SetSorted(true)
	r := b.Reverse()
	if !r.Head().Sorted() || !r.Tail().Dense() {
		t.Error("reverse must carry properties with the swapped columns")
	}
	m := b.MarkT(7)
	if !m.Tail().Dense() || m.Tail().Base() != 7 || !m.Tail().Sorted() {
		t.Error("MarkT tail must be dense (hence sorted)")
	}
	mh := b.MarkH(3)
	if !mh.Head().Dense() || !mh.Tail().Sorted() {
		t.Error("MarkH must keep the tail's properties and produce a dense head")
	}
}

func TestSliceIsZeroCopyView(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	b := MakeInts("x", vals)
	b.Tail().SetSorted(true)
	allocs := testing.AllocsPerRun(100, func() { _ = b.Slice(10, 900) })
	if allocs > 3 {
		t.Errorf("Slice allocated %v objects; want an O(1) view (<= 3 structs)", allocs)
	}
	s := b.Slice(10, 20)
	if !s.Head().Dense() || s.Head().Base() != 10 {
		t.Error("slice of a dense head should stay dense with shifted base")
	}
	if !s.Tail().Sorted() {
		t.Error("slice must preserve tail sortedness")
	}
	// Views share payload: the parent's value shows through.
	if s.Tail().Int(0) != 10 {
		t.Errorf("view value = %d, want 10", s.Tail().Int(0))
	}
}

func TestUnionPropertiesAndDenseFusion(t *testing.T) {
	a := MakeInts("a", []int64{1, 2})
	b := New("b", DenseColumn(2, 2), IntColumn([]int64{3, 4})) // head continues a's 0..1
	a.Tail().SetSorted(true)
	b.Tail().SetSorted(true)
	u := a.Union(b)
	if !u.Head().Dense() || u.Head().Base() != 0 || u.Head().Len() != 4 {
		t.Error("union of adjacent dense heads should fuse into one dense head")
	}
	if !u.Tail().Sorted() {
		t.Error("union with ordered boundary should stay sorted")
	}
	// Unordered boundary: sortedness must NOT survive.
	c := MakeInts("c", []int64{0})
	c.Tail().SetSorted(true)
	u2 := a.Union(c)
	if u2.Tail().Sorted() {
		t.Error("union with descending boundary must clear sorted")
	}
	if want := []int64{1, 2, 0}; !reflect.DeepEqual(intsOf(u2), want) {
		t.Errorf("union = %v, want %v", intsOf(u2), want)
	}
}

func TestUnionDoesNotAliasInputs(t *testing.T) {
	a := MakeInts("a", []int64{1, 2})
	b := MakeInts("b", []int64{3})
	u := a.Union(b)
	u.Tail().Append(int64(99)) // must not clobber a or b
	if a.Len() != 2 || b.Len() != 1 || a.Tail().Int(1) != 2 || b.Tail().Int(0) != 3 {
		t.Fatal("Union result aliases its inputs")
	}
}

func TestJoinPropagatesHeadSortedness(t *testing.T) {
	// Hash join: probe order preserved, so a sorted probe head stays sorted.
	l := MakeInts("l", []int64{1, 2, 2, 3})
	r := MakeInts("r", []int64{2, 3})
	j := l.Join(r.Reverse())
	if !j.Head().Sorted() {
		t.Error("hash join must keep the probe side's sorted head sorted")
	}
}

func TestJoinDenseDenseIsView(t *testing.T) {
	// [dense|dense] ⋈ [dense|vals] — the overlap is one contiguous run.
	pos := New("pos", DenseColumn(0, 10), DenseColumn(5, 10)) // tail oids 5..14
	vals := MakeInts("vals", []int64{0, 1, 2, 3, 4, 5, 6, 7}) // head oids 0..7
	j := pos.Join(vals)
	if j.Len() != 3 { // overlap of [5,15) and [0,8) = [5,8)
		t.Fatalf("dense-dense join = %d rows, want 3", j.Len())
	}
	if want := []int64{5, 6, 7}; !reflect.DeepEqual(intsOf(j), want) {
		t.Fatalf("dense-dense join = %v, want %v", intsOf(j), want)
	}
	if !j.Head().Dense() {
		t.Error("dense-dense join head should stay dense")
	}
	allocs := testing.AllocsPerRun(100, func() { _ = pos.Join(vals) })
	if allocs > 3 {
		t.Errorf("dense-dense join allocated %v objects; want O(1) views", allocs)
	}
}

func TestFetchJoinFullMatchSharesHead(t *testing.T) {
	pos := MakeOids("pos", []Oid{2, 0, 1})
	vals := MakeInts("vals", []int64{10, 20, 30})
	j := pos.Join(vals)
	if j.Head() != pos.Head() {
		t.Error("full-match fetch join should pass the head through zero-copy")
	}
}

func TestGroupIDsSharesHeadAndSortedFastPath(t *testing.T) {
	b := MakeInts("k", []int64{1, 1, 2, 2, 2, 3})
	b.Tail().SetSorted(true)
	groups, reps := b.GroupIDs()
	if groups.Head() != b.Head() {
		t.Error("GroupIDs must share the input head zero-copy")
	}
	if !groups.Tail().Sorted() {
		t.Error("group ids over a sorted key are non-decreasing")
	}
	if reps.Len() != 3 {
		t.Fatalf("reps = %d, want 3", reps.Len())
	}
	wantIDs := []Oid{0, 0, 1, 1, 1, 2}
	for i, w := range wantIDs {
		if groups.Tail().Oid(i) != w {
			t.Fatalf("sorted grouping ids wrong at %d: %s", i, groups.Dump(10))
		}
	}
}

func TestUniqueTSortedAndDense(t *testing.T) {
	b := MakeInts("x", []int64{1, 1, 2, 3, 3})
	b.Tail().SetSorted(true)
	u := b.UniqueT()
	if want := []int64{1, 2, 3}; !reflect.DeepEqual(intsOf(u), want) {
		t.Fatalf("sorted unique = %v, want %v", intsOf(u), want)
	}
	d := New("d", DenseColumn(0, 4), DenseColumn(10, 4))
	if du := d.UniqueT(); du.Len() != 4 {
		t.Fatalf("dense unique = %d rows, want 4 (all distinct)", du.Len())
	}
}

func TestSemijoinDiffPropagation(t *testing.T) {
	a := New("a", OidColumn([]Oid{1, 2, 3, 4}), IntColumn([]int64{10, 20, 30, 40}))
	a.Head().SetSorted(true)
	a.Tail().SetSorted(true)
	b := New("b", OidColumn([]Oid{2, 4}), IntColumn([]int64{0, 0}))
	semi := a.Semijoin(b)
	if !semi.Head().Sorted() || !semi.Tail().Sorted() {
		t.Error("semijoin preserves row order, so sortedness must survive")
	}
	diff := a.Diff(b)
	if !diff.Head().Sorted() || !diff.Tail().Sorted() {
		t.Error("diff preserves row order, so sortedness must survive")
	}
}

func TestSemijoinDenseDenseView(t *testing.T) {
	a := New("a", DenseColumn(3, 5), IntColumn([]int64{1, 2, 3, 4, 5})) // heads 3..7
	b := New("b", DenseColumn(5, 10), IntColumn(make([]int64, 10)))     // heads 5..14
	got := a.Semijoin(b)
	if want := []int64{3, 4, 5}; !reflect.DeepEqual(intsOf(got), want) { // heads 5,6,7
		t.Fatalf("dense-dense semijoin = %v, want %v", intsOf(got), want)
	}
	if !got.Head().Dense() || got.Head().Base() != 5 {
		t.Error("dense-dense semijoin should return a dense view")
	}
}

func TestDiffDenseRange(t *testing.T) {
	a := New("a", OidColumn([]Oid{0, 5, 9, 12}), IntColumn([]int64{1, 2, 3, 4}))
	b := New("b", DenseColumn(5, 5), IntColumn(make([]int64, 5))) // excludes 5..9
	got := a.Diff(b)
	if want := []int64{1, 4}; !reflect.DeepEqual(intsOf(got), want) {
		t.Fatalf("diff vs dense range = %v, want %v", intsOf(got), want)
	}
}

func TestSelectDenseTailArithmetic(t *testing.T) {
	b := New("x", IntColumn([]int64{10, 20, 30, 40, 50}), DenseColumn(100, 5))
	got := b.Select(&Bound{Value: Oid(101), Inclusive: true}, &Bound{Value: Oid(103), Inclusive: false})
	if got.Len() != 2 || got.Tail().Oid(0) != 101 || got.Tail().Oid(1) != 102 {
		t.Fatalf("dense tail select = %s", got.Dump(10))
	}
	if !got.Tail().Dense() {
		t.Error("dense tail select should stay dense")
	}
	if got.Head().Int(0) != 20 {
		t.Errorf("head = %d, want 20", got.Head().Int(0))
	}
	// Out-of-range bounds.
	if b.Select(&Bound{Value: Oid(200), Inclusive: true}, nil).Len() != 0 {
		t.Error("lo above range must be empty")
	}
	if b.Select(nil, &Bound{Value: Oid(99), Inclusive: true}).Len() != 0 {
		t.Error("hi below range must be empty")
	}
}

// --- typed vs generic equivalence ----------------------------------------

func randomIntBAT(rng *rand.Rand, n, domain int) *BAT {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(domain))
	}
	return MakeInts("x", vals)
}

func sameBAT(t *testing.T, op string, a, b *BAT) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: len %d != %d", op, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Head().Value(i) != b.Head().Value(i) || a.Tail().Value(i) != b.Tail().Value(i) {
			t.Fatalf("%s: row %d: (%v,%v) != (%v,%v)", op, i,
				a.Head().Value(i), a.Tail().Value(i), b.Head().Value(i), b.Tail().Value(i))
		}
	}
}

func TestSelectTypedMatchesGenericRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		b := randomIntBAT(rng, rng.Intn(60), 40)
		if rng.Intn(2) == 0 {
			b = b.SortT(false) // exercise the span path half the time
		}
		mkBound := func() *Bound {
			if rng.Intn(4) == 0 {
				return nil
			}
			bd := &Bound{Inclusive: rng.Intn(2) == 0}
			if rng.Intn(2) == 0 {
				bd.Value = int64(rng.Intn(50) - 5)
			} else {
				// Mixed literal: float bound over the int column,
				// integral or fractional.
				bd.Value = float64(rng.Intn(100)-10) / 2
			}
			return bd
		}
		lo, hi := mkBound(), mkBound()
		sameBAT(t, "select", b.Select(lo, hi), b.selectGeneric(lo, hi))
	}
}

func TestSelectFloatAndStringEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		fv := make([]float64, rng.Intn(40))
		for i := range fv {
			fv[i] = float64(rng.Intn(40)) / 4
		}
		fb := MakeFloats("f", fv)
		lo := &Bound{Value: float64(rng.Intn(20)) / 2, Inclusive: rng.Intn(2) == 0}
		hi := &Bound{Value: int64(rng.Intn(10)), Inclusive: rng.Intn(2) == 0} // int literal on float column
		sameBAT(t, "fselect", fb.Select(lo, hi), fb.selectGeneric(lo, hi))

		words := []string{"a", "b", "c", "d", "e"}
		sv := make([]string, rng.Intn(40))
		for i := range sv {
			sv[i] = words[rng.Intn(len(words))]
		}
		sb := MakeStrs("s", sv)
		slo := &Bound{Value: words[rng.Intn(len(words))], Inclusive: rng.Intn(2) == 0}
		shi := &Bound{Value: words[rng.Intn(len(words))], Inclusive: rng.Intn(2) == 0}
		sameBAT(t, "sselect", sb.Select(slo, shi), sb.selectGeneric(slo, shi))
	}
}

func TestSelectNeTypedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		b := randomIntBAT(rng, rng.Intn(40), 10)
		var v any
		switch rng.Intn(3) {
		case 0:
			v = int64(rng.Intn(12))
		case 1:
			v = float64(rng.Intn(12)) // integral float
		default:
			v = float64(rng.Intn(24)) / 2 // possibly fractional
		}
		sameBAT(t, "selectNe", b.SelectNe(v), b.selectNeGeneric(v))
	}
}

func TestJoinTypedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		l := randomIntBAT(rng, rng.Intn(50), 20)
		r := randomIntBAT(rng, rng.Intn(50), 20)
		sameBAT(t, "join", l.Join(r.Reverse()), l.joinGeneric(r.Reverse()))
	}
	// String keys too.
	words := []string{"x", "y", "z", "w"}
	for trial := 0; trial < 50; trial++ {
		mk := func(n int) *BAT {
			v := make([]string, n)
			for i := range v {
				v[i] = words[rng.Intn(len(words))]
			}
			return MakeStrs("s", v)
		}
		l, r := mk(rng.Intn(30)), mk(rng.Intn(30))
		sameBAT(t, "strjoin", l.Join(r.Reverse()), l.joinGeneric(r.Reverse()))
	}
}

func TestEqRowsMixedKindsFallsBack(t *testing.T) {
	a := MakeInts("a", []int64{1, 2, 3})
	f := MakeFloats("f", []float64{1.0, 2.5, 3.0})
	got := a.EqRows(f)
	if want := []int64{1, 3}; !reflect.DeepEqual(intsOf(got), want) {
		t.Fatalf("mixed EqRows = %v, want %v", intsOf(got), want)
	}
}

func TestSelectFloatBoundAtInt64Extremes(t *testing.T) {
	b := MakeInts("x", []int64{-1 << 63, 0, 1<<63 - 1})
	cases := []struct {
		lo, hi *Bound
	}{
		{nil, &Bound{Value: -float64(1 << 63), Inclusive: true}},  // hi == MinInt64: keeps row 0
		{&Bound{Value: -float64(1 << 63), Inclusive: true}, nil},  // lo == MinInt64: keeps all
		{&Bound{Value: float64(1 << 62), Inclusive: true}, nil},   // huge lo: keeps MaxInt64 row
		{nil, &Bound{Value: -float64(1 << 63), Inclusive: false}}, // hi < MinInt64 range: empty
	}
	for _, c := range cases {
		sameBAT(t, "extreme-bounds", b.Select(c.lo, c.hi), b.selectGeneric(c.lo, c.hi))
	}
	// At exactly 2^63 the boxed reference is lossy (converting MaxInt64
	// to float64 rounds it up to 2^63), so the typed path is held to the
	// arithmetically exact answer instead of boxed parity.
	if got := b.Select(nil, &Bound{Value: float64(1 << 63), Inclusive: false}); got.Len() != 3 {
		t.Errorf("hi < 2^63 must keep every int64, got %d rows", got.Len())
	}
	if got := b.Select(&Bound{Value: float64(1 << 63), Inclusive: true}, nil); got.Len() != 0 {
		t.Errorf("lo >= 2^63 must be empty, got %d rows", got.Len())
	}
}

func TestSelectOidBoundLiterals(t *testing.T) {
	b := MakeOids("o", []Oid{5, 1, 9, 3}).Reverse().Reverse() // materialized oid tail
	// int literal bounds on an OID column.
	got := b.Select(&Bound{Value: int64(3), Inclusive: true}, &Bound{Value: int64(8), Inclusive: true})
	if got.Len() != 2 {
		t.Fatalf("oid select = %d rows, want 2", got.Len())
	}
	// Negative lower bound: everything qualifies.
	if b.Select(&Bound{Value: int64(-1), Inclusive: true}, nil).Len() != 4 {
		t.Error("negative lo on oid column should match all")
	}
	// Negative upper bound: nothing qualifies.
	if b.Select(nil, &Bound{Value: int64(-1), Inclusive: true}).Len() != 0 {
		t.Error("negative hi on oid column should match none")
	}
}

// --- property-driven key kernels -----------------------------------------

// keyCase draws an int/oid key column: n rows over [base, base+domain)
// times stride (a stride above 4 makes the span too sparse for a
// direct-address table), sorted (and flagged) with probability 1/2.
func keyCase(rng *rand.Rand, n, domain int, base, stride int64) (vals []int64, sorted bool) {
	vals = make([]int64, n)
	for i := range vals {
		vals[i] = base + stride*int64(rng.Intn(domain))
	}
	if rng.Intn(2) == 0 {
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return vals, true
	}
	return vals, false
}

func oidsOf(v []int64) []Oid {
	out := make([]Oid, len(v))
	for i, x := range v {
		out[i] = Oid(x)
	}
	return out
}

// TestKeyPathsMatchHash runs every applicable int/oid key path on the
// same inputs and requires each to return exactly the typed hash
// path's pairs and positions, in the same order.
func TestKeyPathsMatchHash(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		stride := int64(1)
		if rng.Intn(3) == 0 {
			stride = 1 << 20 // sparse span: no direct-address table
		}
		domain := 1 + rng.Intn(40)
		// Probe keys reach below and above the build side's range.
		l, lSorted := keyCase(rng, rng.Intn(60), domain+10, -5*stride, stride)
		r, rSorted := keyCase(rng, rng.Intn(60), domain, 0, stride)
		checkKeyPaths(t, trial, l, r, lSorted, rSorted)
		checkKeyPaths(t, trial, nil, r, true, rSorted) // empty probe
	}
}

func checkKeyPaths(t *testing.T, trial int, l, r []int64, lSorted, rSorted bool) {
	t.Helper()
	wantL, wantR := hashJoinTyped(l, r, len(l))
	wantIn, wantOut := memberIdx(l, makeSet(r), true), memberIdx(l, makeSet(r), false)
	same := func(path string, got, want []int32) {
		t.Helper()
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: %s = %v, hash path %v (l=%v r=%v)", trial, path, got, want, l, r)
		}
	}
	if rSorted {
		gl, gr := sortedJoin(l, r, lSorted, 0)
		same("sortedJoin probe rows", gl, wantL)
		same("sortedJoin build rows", gr, wantR)
		for keep, want := range map[bool][]int32{true: wantIn, false: wantOut} {
			idx := make([]int32, sortedMembers(l, r, lSorted, keep, nil))
			sortedMembers(l, r, lSorted, keep, idx)
			same(fmt.Sprintf("sortedMembers keep=%v", keep), idx, want)
		}
	}
	if lo, width, ok := compactSpan(r, rSorted); ok {
		gl, gr := directJoin(l, r, lo, width, 0)
		same("directJoin probe rows", gl, wantL)
		same("directJoin build rows", gr, wantR)
		same("bitsetMembers keep", bitsetMembers(l, r, lo, width, true), wantIn)
		same("bitsetMembers drop", bitsetMembers(l, r, lo, width, false), wantOut)
	}
	// The oid instantiation (unsigned keys; negative ints wrap high).
	ol, or := oidsOf(l), oidsOf(r)
	if rSorted && (len(r) == 0 || r[0] >= 0) {
		gl, gr := joinKeys(ol, or, lSorted && (len(l) == 0 || l[0] >= 0), true, 0)
		hl, hr := hashJoinTyped(ol, or, 0)
		same("oid joinKeys probe rows", gl, hl)
		same("oid joinKeys build rows", gr, hr)
	}
}

// joinSides builds the probe BAT [dense | key] and the build BAT
// [key | payload] of a join over int keys, or over OIDs (materialized,
// or dense when asked and possible).
func joinSides(l, r []int64, lSorted, rSorted, oid, denseBuild bool) (lb, rb *BAT) {
	payload := make([]int64, len(r))
	for i := range payload {
		payload[i] = int64(100 + i)
	}
	if oid {
		lc := OidColumn(oidsOf(l))
		lc.SetSorted(lSorted)
		lb = New("l", DenseColumn(0, len(l)), lc)
		rc := OidColumn(oidsOf(r))
		if denseBuild {
			rc = DenseColumn(Oid(7), len(r))
		}
		rc.SetSorted(rSorted || denseBuild)
		return lb, New("r", rc, IntColumn(payload))
	}
	lc := IntColumn(l)
	lc.SetSorted(lSorted)
	rc := IntColumn(r)
	rc.SetSorted(rSorted)
	return New("l", DenseColumn(0, len(l)), lc), New("r", rc, IntColumn(payload))
}

// headRef is the boxed reference for Semijoin (keep) and Diff (!keep).
func headRef(b, r *BAT, keep bool) *BAT {
	in := map[any]bool{}
	for i := 0; i < r.Len(); i++ {
		in[r.Head().Value(i)] = true
	}
	var idx []int
	for i := 0; i < b.Len(); i++ {
		if in[b.Head().Value(i)] == keep {
			idx = append(idx, i)
		}
	}
	return &BAT{h: b.h.take(idx), t: b.t.take(idx)}
}

// TestSortedHeadOperatorsMatchGeneric checks Join, Semijoin and Diff
// end to end against the boxed reference paths on sorted and unsorted
// heads with duplicates, probe keys outside the build range, empty
// sides, compact and sparse spans, and dense versus materialized OID
// columns.
func TestSortedHeadOperatorsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		stride := int64(1)
		if rng.Intn(3) == 0 {
			stride = 1 << 20
		}
		domain := 1 + rng.Intn(30)
		l, lSorted := keyCase(rng, rng.Intn(50), domain+10, 0, stride)
		r, rSorted := keyCase(rng, rng.Intn(50), domain, 3, stride)
		oid := rng.Intn(2) == 0
		lb, rb := joinSides(l, r, lSorted, rSorted, oid, oid && rng.Intn(4) == 0)
		sameBAT(t, "join", lb.Join(rb), lb.joinGeneric(rb))

		// Semijoin/Diff compare heads: put the keys in the head.
		lh := lb.Reverse()
		sameBAT(t, "semijoin", lh.Semijoin(rb), headRef(lh, rb, true))
		sameBAT(t, "diff", lh.Diff(rb), headRef(lh, rb, false))
		// A mirrored probe (the shape conjunctions semijoin) stays
		// mirrored and agrees too.
		m := lh.Mirror()
		got := m.Semijoin(rb)
		sameBAT(t, "mirror semijoin", got, headRef(m, rb, true))
		if got.Head() != got.Tail() {
			t.Fatal("semijoin of a mirrored BAT should stay mirrored")
		}
	}
}

// --- branch-free select on floats -----------------------------------------

// TestFloatSelectSpecialValuesMatchGeneric runs every bound combination
// over a float column holding NaN, ±Inf and signed zeros: NaN rows are
// kept under every bound by both paths.
func TestFloatSelectSpecialValuesMatchGeneric(t *testing.T) {
	inf := math.Inf(1)
	special := []float64{math.NaN(), inf, -inf, 0, math.Copysign(0, -1), 1.5, -2.25, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(23))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = special[rng.Intn(len(special))]
	}
	b := MakeFloats("f", vals)
	bounds := []any{nil, math.NaN(), inf, -inf, 0.0, 1.5, -2.25, math.MaxFloat64, -math.MaxFloat64, int64(1)}
	for _, lo := range bounds {
		for _, hi := range bounds {
			for _, loIncl := range []bool{true, false} {
				for _, hiIncl := range []bool{true, false} {
					var lb, hb *Bound
					if lo != nil {
						lb = &Bound{Value: lo, Inclusive: loIncl}
					}
					if hi != nil {
						hb = &Bound{Value: hi, Inclusive: hiIncl}
					}
					sameFloatRows(t, fmt.Sprintf("select(%v/%v, %v/%v)", lo, loIncl, hi, hiIncl), b.Select(lb, hb), b.selectGeneric(lb, hb))
				}
			}
		}
	}
	if n := b.Select(&Bound{Value: inf, Inclusive: false}, nil).Len(); n != countNaN(vals) {
		t.Fatalf("select(> +Inf) = %d rows, want only the %d NaN rows", n, countNaN(vals))
	}
}

func countNaN(v []float64) int {
	n := 0
	for _, x := range v {
		if x != x {
			n++
		}
	}
	return n
}

// sameFloatRows is sameBAT for float tails, where NaN != NaN: rows must
// match head for head with bit-identical tails.
func sameFloatRows(t *testing.T, op string, a, b *BAT) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: len %d != %d", op, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Head().Oid(i) != b.Head().Oid(i) || math.Float64bits(a.Tail().Float(i)) != math.Float64bits(b.Tail().Float(i)) {
			t.Fatalf("%s: row %d differs", op, i)
		}
	}
}

// --- small-domain grouping -------------------------------------------------

// groupRef assigns first-appearance group ids with a plain map, the
// reference for the small-domain and table paths.
func groupRef[T comparable](vals []T) (ids []Oid, reps []int32) {
	seen := map[T]Oid{}
	for i, v := range vals {
		id, ok := seen[v]
		if !ok {
			id = Oid(len(reps))
			seen[v] = id
			reps = append(reps, int32(i))
		}
		ids = append(ids, id)
	}
	return ids, reps
}

// domainColumn draws n values over d distinct strings, making sure the
// last distinct value first appears late (near the end) so the probe
// overflows mid-column.
func domainColumn(rng *rand.Rand, n, d int) []string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%02d", rng.Intn(d-1))
	}
	if n > 0 {
		vals[n-1-rng.Intn(1+n/4)] = fmt.Sprintf("v%02d", d-1)
	}
	return vals
}

// TestSmallDomainGroupingAroundCutoff groups columns with smallDomain-1
// to smallDomain+2 distinct values (the probe covers the column, or
// overflows into the hash table part way) and compares ids and
// representatives with the map reference, for GroupIDs and for
// GroupDerive on top of a coarse and a wide first grouping.
func TestSmallDomainGroupingAroundCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for d := smallDomain - 1; d <= smallDomain+2; d++ {
		for trial := 0; trial < 20; trial++ {
			n := d + rng.Intn(300)
			strs := domainColumn(rng, n, d)
			ints := make([]int64, n)
			for i, s := range strs {
				fmt.Sscanf(s[1:], "%d", &ints[i])
				ints[i] *= 1 << 40
			}
			checkGroups(t, "str", strs)
			checkGroups(t, "int", ints)

			// Derive on a 3-group and on an n-group first grouping: the
			// second exceeds the direct-address slot table.
			for _, first := range [][]int64{mod(ints, 3), seq(n)} {
				g, _ := MakeInts("g", first).GroupIDs()
				refined, reps := GroupDerive(g, MakeStrs("k", strs))
				pairs := make([][2]string, n)
				for i := range pairs {
					pairs[i] = [2]string{fmt.Sprint(g.Tail().Oid(i)), strs[i]}
				}
				wantIDs, wantReps := groupRef(pairs)
				for i, w := range wantIDs {
					if refined.Tail().Oid(i) != w {
						t.Fatalf("d=%d: derive id %d = %d, want %d", d, i, refined.Tail().Oid(i), w)
					}
				}
				if reps.Len() != len(wantReps) {
					t.Fatalf("d=%d: derive reps %d, want %d", d, reps.Len(), len(wantReps))
				}
			}
		}
	}
	// NaN keys are each their own group on every path.
	nan := []float64{math.NaN(), 1, math.NaN(), 1}
	if ids, reps := groupKeys(nan); len(reps) != 3 || ids[1] != ids[3] {
		t.Fatalf("NaN grouping: ids %v reps %v", ids, reps)
	}
}

func checkGroups[T comparable](t *testing.T, kind string, vals []T) {
	t.Helper()
	ids, reps := groupKeys(vals)
	wantIDs, wantReps := groupRef(vals)
	if !reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(reps, wantReps) {
		t.Fatalf("%s grouping of %d rows: ids/reps differ from the map reference", kind, len(vals))
	}
}

func mod(v []int64, m int64) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = (x >> 40) % m
	}
	return out
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// --- sortedness soundness ---------------------------------------------------

// checkSortedFlags fails if any column of b is flagged sorted but is
// not non-decreasing: the merge and search paths trust the flag.
func checkSortedFlags(t *testing.T, op string, b *BAT) {
	t.Helper()
	for side, c := range map[string]*Column{"head": b.Head(), "tail": b.Tail()} {
		if !c.Sorted() {
			continue
		}
		for i := 1; i < c.Len(); i++ {
			if lessAt(c, i, i-1) {
				t.Fatalf("%s: %s flagged sorted but row %d < row %d", op, side, i, i-1)
			}
		}
	}
}

func lessAt(c *Column, i, j int) bool {
	switch c.Kind() {
	case KOid:
		return c.Oid(i) < c.Oid(j)
	case KInt:
		return c.Int(i) < c.Int(j)
	case KFloat:
		return c.Float(i) < c.Float(j)
	case KStr:
		return c.Str(i) < c.Str(j)
	case KBool:
		return !c.Bool(i) && c.Bool(j)
	}
	return false
}

// TestSortedFlagSoundUnderRandomChains applies random operator chains
// to random BATs and checks every sorted flag after every step.
func TestSortedFlagSoundUnderRandomChains(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	fresh := func() *BAT {
		b := randomIntBAT(rng, rng.Intn(40), 1+rng.Intn(20))
		switch rng.Intn(3) {
		case 0:
			return b.SortT(false)
		case 1:
			return b.Mirror().MarkT(Oid(rng.Intn(5))).Reverse() // [dense | dense]
		}
		return b
	}
	bound := func() *Bound {
		if rng.Intn(3) == 0 {
			return nil
		}
		return &Bound{Value: int64(rng.Intn(25)), Inclusive: rng.Intn(2) == 0}
	}
	ops := []func(b *BAT) (string, *BAT){
		func(b *BAT) (string, *BAT) { return "select", b.Select(bound(), bound()) },
		func(b *BAT) (string, *BAT) { return "selectEq", b.SelectEq(int64(rng.Intn(20))) },
		func(b *BAT) (string, *BAT) { return "selectNe", b.SelectNe(int64(rng.Intn(20))) },
		func(b *BAT) (string, *BAT) { return "reverse", b.Reverse() },
		func(b *BAT) (string, *BAT) { return "mirror", b.Mirror() },
		func(b *BAT) (string, *BAT) { return "markT", b.MarkT(Oid(rng.Intn(5))) },
		func(b *BAT) (string, *BAT) { return "markH", b.MarkH(Oid(rng.Intn(5))) },
		func(b *BAT) (string, *BAT) { return "sortT", b.SortT(rng.Intn(2) == 0) },
		func(b *BAT) (string, *BAT) { return "uniqueT", b.UniqueT() },
		func(b *BAT) (string, *BAT) {
			n := b.Len()
			from := rng.Intn(n + 1)
			return "slice", b.Slice(from, from+rng.Intn(n-from+1))
		},
		func(b *BAT) (string, *BAT) { g, _ := b.GroupIDs(); return "groupIDs", g },
		func(b *BAT) (string, *BAT) { _, r := b.GroupIDs(); return "groupReps", r },
		func(b *BAT) (string, *BAT) { return "topN", b.TopN(rng.Intn(10), rng.Intn(2) == 0) },
		func(b *BAT) (string, *BAT) {
			other := fresh()
			if other.Head().Kind() != b.Head().Kind() || other.Tail().Kind() != b.Tail().Kind() {
				return "union(skip)", b
			}
			return "union", b.Union(other)
		},
		func(b *BAT) (string, *BAT) {
			r := fresh().Reverse() // [int | oid]
			if b.Head().Kind() != r.Head().Kind() {
				r = fresh()
			}
			if b.Head().Kind() != r.Head().Kind() {
				return "semijoin(skip)", b
			}
			if rng.Intn(2) == 0 {
				return "diff", b.Diff(r)
			}
			return "semijoin", b.Semijoin(r)
		},
		func(b *BAT) (string, *BAT) {
			r := fresh().Reverse() // build [key | oid]
			if b.Tail().Kind() != r.Head().Kind() {
				r = fresh()
			}
			if b.Tail().Kind() != r.Head().Kind() {
				return "join(skip)", b
			}
			return "join", b.Join(r)
		},
	}
	for chain := 0; chain < 300; chain++ {
		b := fresh()
		checkSortedFlags(t, "fresh", b)
		trail := "fresh"
		for step := 0; step < 8; step++ {
			var op string
			op, b = ops[rng.Intn(len(ops))](b)
			trail += " > " + op
			checkSortedFlags(t, trail, b)
		}
	}
}
