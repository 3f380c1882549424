package bat

import (
	"cmp"
	"fmt"
	"math"
	"sort"
)

// The operators in this file are devirtualized: each call dispatches on
// the column kind ONCE, then runs a monomorphic loop over the typed
// payload slice (the generic functions below instantiate per kind).
// Sorted tails take a binary-search span and return an O(1) zero-copy
// view; unsorted scans resolve their bounds once, count qualifying
// rows, then fill the index buffer branch-free at its exact size (plus
// one slot). Joins and semijoins on int/oid keys choose their path from
// the build side's properties (keys.go). The boxed row-at-a-time path
// lives in generic.go and is reached only for literals that cannot be
// normalized to the column kind.

// Predicate bounds for Select. Nil means unbounded on that side.
type Bound struct {
	Value     any
	Inclusive bool
}

// emptyLike returns a zero-row BAT with b's column kinds and density.
func (b *BAT) emptyLike() *BAT {
	return &BAT{Name: b.Name, h: b.h.view(0, 0), t: b.t.view(0, 0)}
}

// viewAll returns the whole BAT as a zero-copy view.
func (b *BAT) viewAll() *BAT {
	return &BAT{Name: b.Name, h: b.h, t: b.t}
}

// rowID is what the select scans emit per qualifying row: an int32 row
// position, or the OID base+row when the head is dense, so that the
// emitted slice is the result's head as it stands.
type rowID interface{ int32 | Oid }

// intRangeIdx returns base+row for the rows of the unsorted int/oid
// payload whose value lies in the inclusive range [lo, lo+width]: one
// unsigned compare per row (v-lo wraps past width for v < lo). It
// counts, then fills branch-free into the exact count plus one slot:
// every row is written at the cursor, which only advances past rows
// that qualify, so the last write may land one past the count.
func intRangeIdx[K intKey, I rowID](vals []K, lo K, width uint64, base I) []I {
	n := 0
	for _, v := range vals {
		n += b2i(uint64(v-lo) <= width)
	}
	idx := make([]I, n+1)
	k := 0
	for i, v := range vals {
		idx[k] = base + I(i)
		k += b2i(uint64(v-lo) <= width)
	}
	return idx[:n]
}

// floatRangeIdx is intRangeIdx over a float payload and the closed
// range [lo, hi]: two compares per row. A row is rejected only by a
// compare that holds, so NaN, for which none holds, qualifies under
// every bound, as in the boxed reference path.
func floatRangeIdx[I rowID](vals []float64, lo, hi float64, base I) []I {
	n := 0
	for _, v := range vals {
		n += b2i(!(v < lo)) & b2i(!(v > hi))
	}
	idx := make([]I, n+1)
	k := 0
	for i, v := range vals {
		idx[k] = base + I(i)
		k += b2i(!(v < lo)) & b2i(!(v > hi))
	}
	return idx[:n]
}

// closedFloatRange turns float bounds into the closed range that
// floatRangeIdx tests: an open side becomes ±Inf and an exclusive
// bound moves one float inward. Nothing lies beyond an exclusive ±Inf
// but NaN; [+Inf, -Inf] is that range, rejecting every ordered value.
func closedFloatRange(lo float64, hasLo, loIncl bool, hi float64, hasHi, hiIncl bool) (float64, float64) {
	inf := math.Inf(1)
	switch {
	case !hasLo:
		lo = -inf
	case !loIncl && lo == inf:
		return inf, -inf
	case !loIncl:
		lo = math.Nextafter(lo, inf)
	}
	switch {
	case !hasHi:
		hi = inf
	case !hiIncl && hi == -inf:
		return inf, -inf
	case !hiIncl:
		hi = math.Nextafter(hi, -inf)
	}
	return lo, hi
}

// strRange is a range predicate over a string payload with its bounds
// resolved once per call into 0/1 masks.
type strRange struct {
	lo, hi         string
	hasLo, hasHi   int
	loExcl, hiExcl int
}

func (r *strRange) keep(v string) int {
	rejLo := b2i(v < r.lo) | b2i(v == r.lo)&r.loExcl
	rejHi := b2i(v > r.hi) | b2i(v == r.hi)&r.hiExcl
	return 1 ^ (rejLo&r.hasLo | rejHi&r.hasHi)
}

// strRangeIdx is intRangeIdx over a strRange.
func strRangeIdx[I rowID](vals []string, r strRange, base I) []I {
	n := 0
	for _, v := range vals {
		n += r.keep(v)
	}
	idx := make([]I, n+1)
	k := 0
	for i, v := range vals {
		idx[k] = base + I(i)
		k += r.keep(v)
	}
	return idx[:n]
}

// rangeSpan binary-searches a sorted payload for the qualifying
// half-open row range [from, to): O(log n).
func rangeSpan[T cmp.Ordered](vals []T, lo *T, loIncl bool, hi *T, hiIncl bool) (from, to int) {
	from, to = 0, len(vals)
	if lo != nil {
		l := *lo
		if loIncl {
			from = sort.Search(len(vals), func(i int) bool { return vals[i] >= l })
		} else {
			from = sort.Search(len(vals), func(i int) bool { return vals[i] > l })
		}
	}
	if hi != nil {
		h := *hi
		if hiIncl {
			to = sort.Search(len(vals), func(i int) bool { return vals[i] > h })
		} else {
			to = sort.Search(len(vals), func(i int) bool { return vals[i] >= h })
		}
	}
	if to < from {
		to = from
	}
	return from, to
}

// selectSpan answers a range select over a sorted tail with an
// O(log n) binary search and an O(1) zero-copy view.
func selectSpan[T cmp.Ordered](b *BAT, vals []T, lo *T, loIncl bool, hi *T, hiIncl bool) *BAT {
	from, to := rangeSpan(vals, lo, loIncl, hi, hiIncl)
	return b.Slice(from, to)
}

// selectInt is Select over an int/oid tail with normalized inclusive
// bounds: a binary search when the tail is sorted, else the branch-free
// scan, with minK/maxK standing in for open sides.
func selectInt[K intKey](b *BAT, vals []K, lo K, hasLo bool, hi K, hasHi bool, minK, maxK K) *BAT {
	if b.t.Sorted() {
		return selectSpan(b, vals, ptrIf(lo, hasLo), true, ptrIf(hi, hasHi), true)
	}
	point := hasLo && hasHi && lo == hi
	if !hasLo {
		lo = minK
	}
	if !hasHi {
		hi = maxK
	}
	if lo > hi {
		return b.emptyLike()
	}
	if b.h.dense {
		return b.selectDense(intRangeIdx(vals, lo, uint64(hi-lo), b.h.base), point)
	}
	return b.selectRows(intRangeIdx(vals, lo, uint64(hi-lo), int32(0)), point)
}

// selectRows gathers the rows an unsorted scan qualified. Row order is
// preserved, so a sorted head stays sorted; a point predicate yields a
// constant, hence sorted, tail.
func (b *BAT) selectRows(idx []int32, point bool) *BAT {
	nb := b.takeRows(idx)
	if point {
		nb.t.sorted = true
	}
	return nb
}

// selectDense is selectRows for a dense head, whose scan emitted the
// qualifying OIDs themselves: they become the head as they are, and the
// tail is gathered straight from them.
func (b *BAT) selectDense(oids []Oid, point bool) *BAT {
	h := OidColumn(oids)
	h.sorted = true
	t := takeIdx(b.t, oids, b.h.base)
	t.sorted = point
	return &BAT{Name: b.Name, h: h, t: t}
}

const (
	maxI64f = float64(1 << 63)  // 2^63, exact in float64
	minI64f = -float64(1 << 63) // -2^63, exact in float64
	maxU64f = float64(1 << 64)  // 2^64, exact in float64
)

// normIntBound turns a Bound over an int column into an inclusive int64
// limit. Float literals round toward the inside of the range, so mixed
// int/float predicates stay on the typed path. has=false: unbounded.
// empty=true: unsatisfiable. ok=false: fall back to the generic path.
func normIntBound(bd *Bound, isLo bool) (v int64, has, empty, ok bool) {
	if bd == nil {
		return 0, false, false, true
	}
	switch x := bd.Value.(type) {
	case int64:
		v = x
	case int:
		v = int64(x)
	case Oid:
		v = int64(x)
	case float64:
		if math.IsNaN(x) {
			return 0, false, false, false
		}
		if isLo {
			if x >= maxI64f {
				return 0, false, true, true
			}
			if x < minI64f {
				return 0, false, false, true
			}
			if c := math.Ceil(x); c != x {
				if c >= maxI64f {
					return 0, false, true, true
				}
				return int64(c), true, false, true // fractional: inclusiveness moot
			}
		} else {
			if x < minI64f {
				return 0, false, true, true
			}
			if x >= maxI64f {
				return 0, false, false, true
			}
			if f := math.Floor(x); f != x {
				return int64(f), true, false, true
			}
		}
		v = int64(x)
	default:
		return 0, false, false, false
	}
	if !bd.Inclusive {
		if isLo {
			if v == math.MaxInt64 {
				return 0, false, true, true
			}
			v++
		} else {
			if v == math.MinInt64 {
				return 0, false, true, true
			}
			v--
		}
	}
	return v, true, false, true
}

// normOidBound is normIntBound for OID (unsigned) columns.
func normOidBound(bd *Bound, isLo bool) (v Oid, has, empty, ok bool) {
	if bd == nil {
		return 0, false, false, true
	}
	switch x := bd.Value.(type) {
	case Oid:
		v = x
	case int64:
		if x < 0 {
			if isLo {
				return 0, false, false, true // every OID exceeds it
			}
			return 0, false, true, true
		}
		v = Oid(x)
	case int:
		if x < 0 {
			if isLo {
				return 0, false, false, true
			}
			return 0, false, true, true
		}
		v = Oid(x)
	case float64:
		if math.IsNaN(x) {
			return 0, false, false, false
		}
		if x < 0 {
			if isLo {
				return 0, false, false, true
			}
			return 0, false, true, true
		}
		if x >= maxU64f {
			if isLo {
				return 0, false, true, true
			}
			return 0, false, false, true
		}
		if isLo {
			if c := math.Ceil(x); c != x {
				if c >= maxU64f {
					return 0, false, true, true
				}
				return Oid(c), true, false, true
			}
		} else if f := math.Floor(x); f != x {
			return Oid(f), true, false, true
		}
		v = Oid(x)
	default:
		return 0, false, false, false
	}
	if !bd.Inclusive {
		if isLo {
			if v == ^Oid(0) {
				return 0, false, true, true
			}
			v++
		} else {
			if v == 0 {
				return 0, false, true, true
			}
			v--
		}
	}
	return v, true, false, true
}

// normFloatBound turns a Bound over a float column into a typed limit;
// int literals widen to float64 exactly like the boxed comparator did.
func normFloatBound(bd *Bound) (v float64, has, ok bool) {
	if bd == nil {
		return 0, false, true
	}
	switch x := bd.Value.(type) {
	case float64:
		if math.IsNaN(x) {
			return 0, false, false
		}
		return x, true, true
	case int64:
		return float64(x), true, true
	case int:
		return float64(x), true, true
	}
	return 0, false, false
}

func ptrIf[T any](v T, has bool) *T {
	if !has {
		return nil
	}
	return &v
}

// Select returns the BUNs whose tail value lies within [lo, hi]
// (respecting inclusiveness; nil bounds are open). The result preserves
// head values and tail values of the qualifying rows, like MAL's
// algebra.select. Sorted (and dense) tails are answered with a binary
// search and an O(1) slice view instead of a scan.
func (b *BAT) Select(lo, hi *Bound) *BAT {
	if lo == nil && hi == nil {
		return b.viewAll()
	}
	switch b.t.kind {
	case KInt:
		loV, hasLo, emptyLo, ok1 := normIntBound(lo, true)
		hiV, hasHi, emptyHi, ok2 := normIntBound(hi, false)
		if !ok1 || !ok2 {
			return b.selectGeneric(lo, hi)
		}
		if emptyLo || emptyHi {
			return b.emptyLike()
		}
		return selectInt(b, b.t.ints, loV, hasLo, hiV, hasHi, math.MinInt64, math.MaxInt64)
	case KFloat:
		loV, hasLo, ok1 := normFloatBound(lo)
		hiV, hasHi, ok2 := normFloatBound(hi)
		if !ok1 || !ok2 {
			return b.selectGeneric(lo, hi)
		}
		loIncl := lo == nil || lo.Inclusive
		hiIncl := hi == nil || hi.Inclusive
		if b.t.Sorted() {
			return selectSpan(b, b.t.floats, ptrIf(loV, hasLo), loIncl, ptrIf(hiV, hasHi), hiIncl)
		}
		// A float point select keeps NaN rows too, so its tail is not
		// flagged sorted.
		loV, hiV = closedFloatRange(loV, hasLo, loIncl, hiV, hasHi, hiIncl)
		if b.h.dense {
			return b.selectDense(floatRangeIdx(b.t.floats, loV, hiV, b.h.base), false)
		}
		return b.selectRows(floatRangeIdx(b.t.floats, loV, hiV, int32(0)), false)
	case KOid:
		loV, hasLo, emptyLo, ok1 := normOidBound(lo, true)
		hiV, hasHi, emptyHi, ok2 := normOidBound(hi, false)
		if !ok1 || !ok2 {
			return b.selectGeneric(lo, hi)
		}
		if emptyLo || emptyHi {
			return b.emptyLike()
		}
		if b.t.dense {
			return b.selectDenseTail(loV, hasLo, hiV, hasHi)
		}
		return selectInt(b, b.t.oids, loV, hasLo, hiV, hasHi, 0, ^Oid(0))
	case KStr:
		loV, hasLo, ok1 := normStrBound(lo)
		hiV, hasHi, ok2 := normStrBound(hi)
		if !ok1 || !ok2 {
			return b.selectGeneric(lo, hi)
		}
		loIncl := lo == nil || lo.Inclusive
		hiIncl := hi == nil || hi.Inclusive
		if b.t.Sorted() {
			return selectSpan(b, b.t.strs, ptrIf(loV, hasLo), loIncl, ptrIf(hiV, hasHi), hiIncl)
		}
		r := strRange{lo: loV, hi: hiV, hasLo: b2i(hasLo), hasHi: b2i(hasHi), loExcl: b2i(!loIncl), hiExcl: b2i(!hiIncl)}
		point := hasLo && hasHi && loV == hiV && loIncl && hiIncl
		if b.h.dense {
			return b.selectDense(strRangeIdx(b.t.strs, r, b.h.base), point)
		}
		return b.selectRows(strRangeIdx(b.t.strs, r, int32(0)), point)
	case KBool:
		return b.selectBool(lo, hi)
	}
	return b.selectGeneric(lo, hi)
}

func normStrBound(bd *Bound) (v string, has, ok bool) {
	if bd == nil {
		return "", false, true
	}
	if s, isStr := bd.Value.(string); isStr {
		return s, true, true
	}
	return "", false, false
}

// selectDenseTail answers a range select over a dense OID tail with
// pure arithmetic: O(1), returning a view.
func (b *BAT) selectDenseTail(lo Oid, hasLo bool, hi Oid, hasHi bool) *BAT {
	n := b.t.n
	base := b.t.base
	from, to := 0, n
	if hasLo {
		if n == 0 || lo > base+Oid(n-1) {
			return b.emptyLike()
		}
		if lo > base {
			from = int(lo - base)
		}
	}
	if hasHi {
		if hi < base {
			return b.emptyLike()
		}
		if n > 0 && hi < base+Oid(n-1) {
			to = int(hi-base) + 1
		}
	}
	if to < from {
		to = from
	}
	return b.Slice(from, to)
}

// selectBool evaluates the bounds against the two possible values once,
// then runs a monomorphic equality scan (or returns a view when both or
// neither value qualifies).
func (b *BAT) selectBool(lo, hi *Bound) *BAT {
	qualifies := func(v bool) bool {
		if lo != nil {
			lv, isBool := lo.Value.(bool)
			if !isBool {
				return false
			}
			if boolLess(v, lv) || (v == lv && !lo.Inclusive) {
				return false
			}
		}
		if hi != nil {
			hv, isBool := hi.Value.(bool)
			if !isBool {
				return false
			}
			if boolLess(hv, v) || (v == hv && !hi.Inclusive) {
				return false
			}
		}
		return true
	}
	if (lo != nil && !isBoolVal(lo.Value)) || (hi != nil && !isBoolVal(hi.Value)) {
		return b.selectGeneric(lo, hi) // non-bool literal: boxed path panics as before
	}
	allowF, allowT := qualifies(false), qualifies(true)
	switch {
	case allowF && allowT:
		return b.viewAll()
	case !allowF && !allowT:
		return b.emptyLike()
	}
	idx := eqScan(b.t.bools, allowT, true)
	nb := &BAT{Name: b.Name, h: b.h.take32(idx), t: b.t.take32(idx)}
	nb.h.sorted = b.h.Sorted()
	nb.t.sorted = true // constant tail
	return nb
}

func isBoolVal(v any) bool { _, ok := v.(bool); return ok }

func boolLess(a, b bool) bool { return !a && b }

// eqScan returns the positions whose value equals (keep=true) or
// differs from (keep=false) x, count-then-fill.
func eqScan[T comparable](vals []T, x T, keep bool) []int32 {
	n := 0
	for _, v := range vals {
		if (v == x) == keep {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for i, v := range vals {
		if (v == x) == keep {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// SelectEq returns the BUNs whose tail equals v.
func (b *BAT) SelectEq(v any) *BAT {
	bd := &Bound{Value: v, Inclusive: true}
	return b.Select(bd, bd)
}

// SelectNe returns the BUNs whose tail differs from v.
func (b *BAT) SelectNe(v any) *BAT {
	switch b.t.kind {
	case KInt:
		switch x := v.(type) {
		case int64:
			return b.selectNeTyped(eqScan(b.t.ints, x, false))
		case int:
			return b.selectNeTyped(eqScan(b.t.ints, int64(x), false))
		case Oid:
			return b.selectNeTyped(eqScan(b.t.ints, int64(x), false))
		case float64:
			if x != math.Trunc(x) || x >= maxI64f || x < minI64f {
				return b.viewAll() // no int equals a fractional/out-of-range float
			}
			return b.selectNeTyped(eqScan(b.t.ints, int64(x), false))
		}
	case KFloat:
		switch x := v.(type) {
		case float64:
			return b.selectNeTyped(eqScan(b.t.floats, x, false))
		case int64:
			return b.selectNeTyped(eqScan(b.t.floats, float64(x), false))
		case int:
			return b.selectNeTyped(eqScan(b.t.floats, float64(x), false))
		}
	case KOid:
		switch x := v.(type) {
		case Oid:
			return b.selectNeTyped(eqScan(b.t.oidValues(), x, false))
		case int64:
			if x < 0 {
				return b.viewAll()
			}
			return b.selectNeTyped(eqScan(b.t.oidValues(), Oid(x), false))
		case int:
			if x < 0 {
				return b.viewAll()
			}
			return b.selectNeTyped(eqScan(b.t.oidValues(), Oid(x), false))
		}
	case KStr:
		if x, isStr := v.(string); isStr {
			return b.selectNeTyped(eqScan(b.t.strs, x, false))
		}
	case KBool:
		if x, isBool := v.(bool); isBool {
			return b.selectNeTyped(eqScan(b.t.bools, x, false))
		}
	}
	return b.selectNeGeneric(v)
}

func (b *BAT) selectNeTyped(idx []int32) *BAT {
	nb := &BAT{Name: b.Name, h: b.h.take32(idx), t: b.t.take32(idx)}
	nb.h.sorted = b.h.Sorted()
	nb.t.sorted = b.t.Sorted()
	return nb
}

// SelectFunc filters rows by an arbitrary tail predicate (used for LIKE
// and other non-range predicates). Inherently boxed: the predicate
// itself takes an any.
func (b *BAT) SelectFunc(pred func(v any) bool) *BAT {
	var idx []int
	for i := 0; i < b.Len(); i++ {
		if pred(b.t.Value(i)) {
			idx = append(idx, i)
		}
	}
	nb := &BAT{Name: b.Name, h: b.h.take(idx), t: b.t.take(idx)}
	nb.h.sorted = b.h.Sorted()
	return nb
}

// eqIdx returns the positions where the two aligned payloads agree.
func eqIdx[T comparable](a, b []T) []int32 {
	n := 0
	for i, v := range a {
		if v == b[i] {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for i, v := range a {
		if v == b[i] {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// EqRows returns the rows of b whose tail value equals r's tail at the
// same position (a positional equality filter, used for cyclic join
// predicates).
func (b *BAT) EqRows(r *BAT) *BAT {
	if b.Len() != r.Len() {
		panic("bat: EqRows length mismatch")
	}
	if b.t.kind != r.t.kind {
		return b.eqRowsGeneric(r) // mixed numeric kinds compare boxed
	}
	var idx []int32
	switch b.t.kind {
	case KOid:
		idx = eqIdx(b.t.oidValues(), r.t.oidValues())
	case KInt:
		idx = eqIdx(b.t.ints, r.t.ints)
	case KFloat:
		idx = eqIdx(b.t.floats, r.t.floats)
	case KStr:
		idx = eqIdx(b.t.strs, r.t.strs)
	case KBool:
		idx = eqIdx(b.t.bools, r.t.bools)
	default:
		return b.eqRowsGeneric(r)
	}
	nb := &BAT{Name: b.Name, h: b.h.take32(idx), t: b.t.take32(idx)}
	nb.h.sorted = b.h.Sorted()
	return nb
}

// hashJoinTyped builds a typed hash table on the right payload and
// probes it with the left: one map instantiation per column kind, no
// boxing. Duplicate build keys chain through one flat next array
// (head[v] = first row, next[j] = following row with the same value),
// so the build side does exactly two allocations regardless of key
// skew. capHint sizes the output buffers; MAL plans mostly run
// foreign-key joins that match ~1:1, so the probe-side length is the
// estimate.
func hashJoinTyped[T comparable](lvals, rvals []T, capHint int) (li, ri []int32) {
	head := make(map[T]int32, len(rvals))
	next := make([]int32, len(rvals))
	// Build backwards so chains run in ascending row order.
	for j := len(rvals) - 1; j >= 0; j-- {
		if first, dup := head[rvals[j]]; dup {
			next[j] = first
		} else {
			next[j] = -1
		}
		head[rvals[j]] = int32(j)
	}
	li = make([]int32, 0, capHint)
	ri = make([]int32, 0, capHint)
	for i, v := range lvals {
		if j, ok := head[v]; ok {
			for ; j >= 0; j = next[j] {
				li = append(li, int32(i))
				ri = append(ri, j)
			}
		}
	}
	return li, ri
}

// Join computes the natural join of b and r on b.tail == r.head,
// returning [b.head | r.tail], MAL's algebra.join. When r's head is a
// dense OID column the join degenerates to positional fetch
// (leftfetchjoin); when BOTH sides are dense the overlap is contiguous
// and the join is an O(1) pair of views.
func (b *BAT) Join(r *BAT) *BAT {
	if b.t.kind != r.h.kind {
		panic(fmt.Sprintf("bat: join type mismatch %s != %s", b.t.kind, r.h.kind))
	}
	if r.h.dense {
		rbase, rn := r.h.base, r.h.Len()
		rend := rbase + Oid(rn)
		if b.t.dense {
			// Dense ∩ dense: the matching OIDs form one contiguous run.
			lo, hi := b.t.base, b.t.base+Oid(b.t.n)
			if rbase > lo {
				lo = rbase
			}
			if rend < hi {
				hi = rend
			}
			if hi <= lo {
				return &BAT{Name: b.Name, h: b.h.view(0, 0), t: r.t.view(0, 0)}
			}
			i0, cnt := int(lo-b.t.base), int(hi-lo)
			j0 := int(lo - rbase)
			return &BAT{Name: b.Name, h: b.h.view(i0, i0+cnt), t: r.t.view(j0, j0+cnt)}
		}
		// Typed positional fetch.
		oids := b.t.oids
		cnt := 0
		for _, o := range oids {
			cnt += b2i(o-rbase < Oid(rn)) // OIDs below rbase wrap past rn
		}
		if cnt == len(oids) {
			// Every position lands: the head passes through zero-copy
			// and the tail is gathered straight from the OIDs.
			return &BAT{Name: b.Name, h: b.h, t: takeIdx(r.t, oids, rbase)}
		}
		li := make([]int32, 0, cnt)
		ri := make([]int32, 0, cnt)
		for i, o := range oids {
			if o >= rbase && o < rend {
				li = append(li, int32(i))
				ri = append(ri, int32(o-rbase))
			}
		}
		nb := &BAT{Name: b.Name, h: b.h.take32(li), t: r.t.take32(ri)}
		nb.h.sorted = b.h.Sorted()
		return nb
	}
	// Int/oid keys pick search, direct-address or hash from the build
	// side's properties (keys.go); the other kinds hash, one
	// instantiation per kind.
	var li, ri []int32
	lSorted, rSorted := b.t.Sorted(), r.h.Sorted()
	switch b.t.kind {
	case KOid:
		li, ri = joinKeys(b.t.oidValues(), r.h.oids, lSorted, rSorted, b.Len())
	case KInt:
		li, ri = joinKeys(b.t.ints, r.h.ints, lSorted, rSorted, b.Len())
	case KFloat:
		li, ri = hashJoinTyped(b.t.floats, r.h.floats, b.Len())
	case KStr:
		li, ri = hashJoinTyped(b.t.strs, r.h.strs, b.Len())
	case KBool:
		li, ri = hashJoinTyped(b.t.bools, r.h.bools, b.Len())
	default:
		return b.joinGeneric(r)
	}
	nb := &BAT{Name: b.Name, h: b.h.take32(li), t: r.t.take32(ri)}
	nb.h.sorted = b.h.Sorted() // probe order is preserved
	return nb
}

// Project is leftfetchjoin with explicit naming: positions in b's tail
// (OIDs) fetch values from r (whose head must cover them). Equivalent to
// b.Join(r) but requires r's head to be dense.
func (b *BAT) Project(r *BAT) *BAT {
	if !r.h.dense {
		panic("bat: Project requires dense head on the value BAT")
	}
	return b.Join(r)
}

// makeSet builds a typed membership set over one payload.
func makeSet[T comparable](vals []T) map[T]struct{} {
	set := make(map[T]struct{}, len(vals))
	for _, v := range vals {
		set[v] = struct{}{}
	}
	return set
}

// memberIdx returns the positions whose value is (keep=true) or is not
// (keep=false) in the set.
func memberIdx[T comparable](vals []T, set map[T]struct{}, keep bool) []int32 {
	n := 0
	for _, v := range vals {
		if _, in := set[v]; in == keep {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for i, v := range vals {
		if _, in := set[v]; in == keep {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// rangeMemberIdx filters positions by membership in the dense OID range
// [base, end) — the set is implicit, no hash table at all.
func rangeMemberIdx(vals []Oid, base, end Oid, keep bool) []int32 {
	n := 0
	for _, o := range vals {
		if (o >= base && o < end) == keep {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for i, o := range vals {
		if (o >= base && o < end) == keep {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// headFilterIdx computes the row positions of b whose head value
// does (keep) or does not (!keep) appear among r's head values: plain
// range arithmetic when r's head is dense, the property-driven
// memberKeys for int/oid heads, typed hash sets otherwise.
func headFilterIdx(b, r *BAT, keep bool) []int32 {
	if r.h.dense {
		base, end := r.h.base, r.h.base+Oid(r.h.Len())
		return rangeMemberIdx(b.h.oidValues(), base, end, keep)
	}
	switch b.h.kind {
	case KOid:
		return memberKeys(b.h.oidValues(), r.h.oids, b.h.Sorted(), r.h.Sorted(), keep)
	case KInt:
		return memberKeys(b.h.ints, r.h.ints, b.h.Sorted(), r.h.Sorted(), keep)
	case KFloat:
		return memberIdx(b.h.floats, makeSet(r.h.floats), keep)
	case KStr:
		return memberIdx(b.h.strs, makeSet(r.h.strs), keep)
	case KBool:
		return memberIdx(b.h.bools, makeSet(r.h.bools), keep)
	}
	return nil
}

// takeRows gathers the given rows of both columns, propagating head and
// tail sortedness (row order is preserved by all int32 index kernels).
// A mirrored BAT (head and tail one column) is gathered once and stays
// mirrored.
func (b *BAT) takeRows(idx []int32) *BAT {
	h := b.h.take32(idx)
	h.sorted = b.h.Sorted()
	if b.t == b.h {
		return &BAT{Name: b.Name, h: h, t: h}
	}
	t := b.t.take32(idx)
	t.sorted = b.t.Sorted()
	return &BAT{Name: b.Name, h: h, t: t}
}

// Semijoin returns the rows of b whose head value appears among r's head
// values (MAL's algebra.semijoin).
func (b *BAT) Semijoin(r *BAT) *BAT {
	if b.h.kind != r.h.kind {
		panic(fmt.Sprintf("bat: semijoin type mismatch %s != %s", b.h.kind, r.h.kind))
	}
	if r.h.dense && b.h.dense {
		// Dense ∩ dense range: contiguous O(1) view.
		lo, hi := b.h.base, b.h.base+Oid(b.h.n)
		rbase, rend := r.h.base, r.h.base+Oid(r.h.Len())
		if rbase > lo {
			lo = rbase
		}
		if rend < hi {
			hi = rend
		}
		if hi <= lo {
			return b.emptyLike()
		}
		i0 := int(lo - b.h.base)
		return b.Slice(i0, i0+int(hi-lo))
	}
	return b.takeRows(headFilterIdx(b, r, true))
}

// Diff returns the rows of b whose head value does NOT appear among r's
// head values (MAL's kdiff).
func (b *BAT) Diff(r *BAT) *BAT {
	if b.h.kind != r.h.kind {
		// Different key kinds can never match; kdiff keeps everything.
		return b.viewAll()
	}
	return b.takeRows(headFilterIdx(b, r, false))
}

// concatCol concatenates two columns of the same kind: the binary case
// of concatCols (concat.go), which owns the dense-fusion and
// sorted-boundary property rules.
func concatCol(a, c *Column) *Column {
	return concatCols([]*Column{a, c})
}

// boundaryOrdered reports last(a) <= first(c); kinds match.
func boundaryOrdered(a, c *Column) bool {
	i, j := a.Len()-1, 0
	switch a.kind {
	case KOid:
		return a.Oid(i) <= c.Oid(j)
	case KInt:
		return a.ints[i] <= c.ints[j]
	case KFloat:
		return a.floats[i] <= c.floats[j]
	case KStr:
		return a.strs[i] <= c.strs[j]
	case KBool:
		return !a.bools[i] || c.bools[j]
	}
	return false
}

// Union appends r's rows to b's (kunion without duplicate elimination):
// one exact-size allocation per column, no index indirection.
func (b *BAT) Union(r *BAT) *BAT {
	if b.h.kind != r.h.kind || b.t.kind != r.t.kind {
		panic("bat: union kind mismatch")
	}
	return &BAT{Name: b.Name, h: concatCol(b.h, r.h), t: concatCol(b.t, r.t)}
}

// uniqueIdx returns the first position of each distinct value, in
// first-appearance order, via a typed seen-set.
func uniqueIdx[T comparable](vals []T) []int32 {
	seen := make(map[T]struct{}, len(vals))
	var idx []int32
	for i, v := range vals {
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// uniqueSortedIdx dedups a sorted payload with adjacent comparison — no
// hash table at all.
func uniqueSortedIdx[T comparable](vals []T) []int32 {
	var idx []int32
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// UniqueT returns the first row for each distinct tail value, in first-
// appearance order. Dense tails are trivially unique (zero-copy view);
// sorted tails dedup by adjacent comparison.
func (b *BAT) UniqueT() *BAT {
	if b.t.dense {
		return b.viewAll()
	}
	var idx []int32
	sorted := b.t.Sorted()
	switch b.t.kind {
	case KOid:
		if sorted {
			idx = uniqueSortedIdx(b.t.oids)
		} else {
			idx = uniqueIdx(b.t.oids)
		}
	case KInt:
		if sorted {
			idx = uniqueSortedIdx(b.t.ints)
		} else {
			idx = uniqueIdx(b.t.ints)
		}
	case KFloat:
		if sorted {
			idx = uniqueSortedIdx(b.t.floats)
		} else {
			idx = uniqueIdx(b.t.floats)
		}
	case KStr:
		if sorted {
			idx = uniqueSortedIdx(b.t.strs)
		} else {
			idx = uniqueIdx(b.t.strs)
		}
	case KBool:
		idx = uniqueIdx(b.t.bools)
	}
	return b.takeRows(idx)
}

// TopN returns the first n rows of b ordered by tail (desc if desc).
func (b *BAT) TopN(n int, desc bool) *BAT {
	s := b.SortT(desc)
	if n > s.Len() {
		n = s.Len()
	}
	return s.Slice(0, n)
}
