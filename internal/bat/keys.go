package bat

import "math/bits"

// Property-driven key kernels shared by Join, Semijoin/Diff and the
// grouping operators. Each operator picks its path once per call from
// what the columns already tell it. An int/oid build side of n keys
// met by p probe keys is
//
//  1. searched when it is sorted and p binary searches cost less than
//     one pass over it (p·log2 n <= n);
//  2. otherwise indexed directly when its keys span (max-min) fewer
//     than maxSlots slots: a chained table of arrays indexed by key-min
//     for a join, a bitmap for a membership test;
//  3. otherwise searched when it is sorted, galloping forward when the
//     probe is sorted too, which makes the search a merge;
//  4. otherwise hashed, the typed hash tables of ops.go.
//
// Grouping keys with at most smallDomain distinct values take a linear
// probe of the values seen so far, with no hashing at all; only
// higher-cardinality keys reach the hash tables of aggr.go.
//
// Every path emits rows in probe order with duplicate matches in
// ascending build row order, so its output is identical to the hash
// path's.

// intKey is the key kinds with an integer order: KInt and KOid payloads.
type intKey interface{ ~int64 | ~uint64 }

// maxSlots is the largest direct-address table allowed for n keys: at
// four int32 slots per key it costs about as much memory as the hash
// map it replaces.
func maxSlots(n int) uint64 { return 4*uint64(n) + 64 }

// smallDomain is the distinct-value count up to which grouping probes a
// linear list instead of hashing.
const smallDomain = 16

// b2i converts a comparison outcome to 0 or 1. The compiler lowers it to
// a flag move (SETcc), so kernels that accumulate it carry no
// data-dependent branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compactSpan reports the smallest key and the width (max-min) of vals
// when the keys are dense enough for a direct-address table. A sorted
// payload answers in O(1) from its ends.
func compactSpan[K intKey](vals []K, sorted bool) (lo K, width uint64, ok bool) {
	if len(vals) == 0 {
		return 0, 0, false
	}
	lo, hi := vals[0], vals[len(vals)-1]
	if !sorted {
		for _, v := range vals {
			lo = min(lo, v)
			hi = max(hi, v)
		}
	}
	width = uint64(hi - lo)
	return lo, width, width < maxSlots(len(vals))
}

// Build-side paths, in the order keyPath tries them.
const (
	pathSearch = iota
	pathDirect
	pathHash
)

// keyPath chooses how p probe keys meet an int/oid build side, per the
// order at the top of this file; lo and width describe a pathDirect
// build side's span.
func keyPath[K intKey](p int, build []K, sorted bool) (path int, lo K, width uint64) {
	if sorted && p*bits.Len(uint(len(build))) <= len(build) {
		return pathSearch, 0, 0
	}
	if lo, width, ok := compactSpan(build, sorted); ok {
		return pathDirect, lo, width
	}
	if sorted {
		return pathSearch, 0, 0
	}
	return pathHash, 0, 0
}

// gallop returns the first position at or after from whose value is
// >= v in the sorted vals: an exponential probe forward from from,
// then a binary search inside the bracket it found. Its cost grows
// with the log of the distance moved, so a sorted probe sequence walks
// the build side like a merge while single lookups stay O(log n).
func gallop[K intKey](vals []K, from int, v K) int {
	n := len(vals)
	if from >= n || vals[from] >= v {
		return from
	}
	// Invariant: vals[lo] < v; the answer lies in (lo, hi].
	lo, step := from, 1
	hi := lo + step
	for hi < n && vals[hi] < v {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	hi = min(hi, n)
	lo++
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vals[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// joinKeys is the int/oid equi-join kernel: it returns the matching
// (probe row, build row) pairs along the path keyPath picks.
func joinKeys[K intKey](lvals, rvals []K, lSorted, rSorted bool, capHint int) (li, ri []int32) {
	switch path, lo, width := keyPath(len(lvals), rvals, rSorted); path {
	case pathSearch:
		return sortedJoin(lvals, rvals, lSorted, capHint)
	case pathDirect:
		return directJoin(lvals, rvals, lo, width, capHint)
	}
	return hashJoinTyped(lvals, rvals, capHint)
}

// sortedJoin joins against a sorted build side by search: equal build
// keys are adjacent, so each probe's matches are one ascending run.
func sortedJoin[K intKey](lvals, rvals []K, lSorted bool, capHint int) (li, ri []int32) {
	li = make([]int32, 0, capHint)
	ri = make([]int32, 0, capHint)
	from := 0
	for i, v := range lvals {
		j := gallop(rvals, from, v)
		if lSorted {
			from = j
		}
		for ; j < len(rvals) && rvals[j] == v; j++ {
			li = append(li, int32(i))
			ri = append(ri, int32(j))
		}
	}
	return li, ri
}

// directJoin is hashJoinTyped over a direct-address table: head[v-lo]
// holds 1 + the first build row with key v (0: none) and next chains
// the following rows with the same key, in ascending row order.
func directJoin[K intKey](lvals, rvals []K, lo K, width uint64, capHint int) (li, ri []int32) {
	head := make([]int32, width+1)
	next := make([]int32, len(rvals))
	// Build backwards so chains run in ascending row order.
	for j := len(rvals) - 1; j >= 0; j-- {
		k := uint64(rvals[j] - lo)
		next[j] = head[k] - 1
		head[k] = int32(j) + 1
	}
	li = make([]int32, 0, capHint)
	ri = make([]int32, 0, capHint)
	for i, v := range lvals {
		k := uint64(v - lo) // keys below lo wrap past width
		if k > width {
			continue
		}
		for j := head[k] - 1; j >= 0; j = next[j] {
			li = append(li, int32(i))
			ri = append(ri, j)
		}
	}
	return li, ri
}

// memberKeys is the int/oid membership kernel behind Semijoin (keep)
// and Diff (!keep): the positions of vals whose value does (keep) or
// does not appear in set, along the path keyPath picks.
func memberKeys[K intKey](vals, set []K, valsSorted, setSorted, keep bool) []int32 {
	switch path, lo, width := keyPath(len(vals), set, setSorted); path {
	case pathSearch:
		idx := make([]int32, sortedMembers(vals, set, valsSorted, keep, nil))
		sortedMembers(vals, set, valsSorted, keep, idx)
		return idx
	case pathDirect:
		return bitsetMembers(vals, set, lo, width, keep)
	}
	return memberIdx(vals, makeSet(set), keep)
}

// sortedMembers counts (out == nil) or writes the positions of vals
// whose membership in the sorted set equals keep.
func sortedMembers[K intKey](vals, set []K, valsSorted, keep bool, out []int32) int {
	n, from := 0, 0
	for i, v := range vals {
		j := gallop(set, from, v)
		if valsSorted {
			from = j
		}
		if (j < len(set) && set[j] == v) == keep {
			if out != nil {
				out[n] = int32(i)
			}
			n++
		}
	}
	return n
}

// bitsetMembers tests membership against a bitmap over the set's key
// span: one bit per possible key, no hashing.
func bitsetMembers[K intKey](vals, set []K, lo K, width uint64, keep bool) []int32 {
	words := make([]uint64, width/64+1)
	for _, v := range set {
		k := uint64(v - lo)
		words[k>>6] |= 1 << (k & 63)
	}
	in := func(v K) bool {
		k := uint64(v - lo)
		return k <= width && words[k>>6]&(1<<(k&63)) != 0
	}
	n := 0
	for _, v := range vals {
		n += b2i(in(v) == keep)
	}
	idx := make([]int32, n+1)
	k := 0
	for i, v := range vals {
		idx[k] = int32(i)
		k += b2i(in(v) == keep)
	}
	return idx[:n]
}

// smallDomainIDs assigns first-appearance ids to vals by a linear probe
// of the distinct values seen so far, most recent hit first. It stops
// at the first row that would make the domain exceed smallDomain values
// and returns how many rows it coded (len(vals) when the whole column
// fits); dom then holds the values coded so far, in id order.
func smallDomainIDs[T comparable](vals []T, ids []Oid, dom *[smallDomain]T) (repIdx []int32, coded int) {
	if s, ok := any(vals).([]string); ok {
		return strDomainIDs(s, ids, any(dom).(*[smallDomain]string))
	}
	nd, last := 0, 0
	for i, v := range vals {
		if nd > 0 && dom[last] == v {
			ids[i] = Oid(last)
			continue
		}
		k := 0
		for k < nd && dom[k] != v {
			k++
		}
		if k == nd {
			if nd == smallDomain {
				return repIdx, i
			}
			dom[nd] = v
			nd++
			repIdx = append(repIdx, int32(i))
		}
		last = k
		ids[i] = Oid(k)
	}
	return repIdx, len(vals)
}

// strDomainIDs is smallDomainIDs for strings. Its hint is the last
// domain value seen with the row's first byte rather than the last
// value seen, so a low-cardinality column such as a one-letter flag
// costs one table load and one equal-pointer compare per row however
// its values interleave.
func strDomainIDs(vals []string, ids []Oid, dom *[smallDomain]string) (repIdx []int32, coded int) {
	var byFirst [257]int8 // 1 + id of a value by first byte (256: ""); 0: none
	nd := 0
	for i, v := range vals {
		f := 256
		if len(v) > 0 {
			f = int(v[0])
		}
		if k := int(byFirst[f]) - 1; k >= 0 && dom[k] == v {
			ids[i] = Oid(k)
			continue
		}
		k := 0
		for k < nd && dom[k] != v {
			k++
		}
		if k == nd {
			if nd == smallDomain {
				return repIdx, i
			}
			dom[nd] = v
			nd++
			repIdx = append(repIdx, int32(i))
		}
		byFirst[f] = int8(k + 1)
		ids[i] = Oid(k)
	}
	return repIdx, len(vals)
}
