// Sparse revised simplex with warm starts.
//
// The solver keeps the constraint matrix in compressed-sparse-column form
// and the basis inverse B⁻¹ as a dense row-major array plus, per row, a
// list of the columns that may be nonzero (every entry outside a row's list
// is exactly +0, and a list has no duplicates). Every pass over B⁻¹ —
// pricing, the pivot update, the basic-value recompute and the Gauss-Jordan
// refactorization — walks those lists, so it costs the inverse's nonzeros,
// not m². The arithmetic is the dense algorithm's, entry by entry and in
// the same order; only multiplications by an exact zero are skipped. The
// inverse is updated by an elementary row operation on each pivot and
// rebuilt from scratch (deterministic Gauss-Jordan with partial pivoting,
// ties broken by lowest row) every refactorEvery pivots and once more at
// the end of a canonical solve, so the reported solution never depends on
// the pivot path's accumulated floating-point history.
//
// Exactness of the skipped work: the dual, FTRAN and basic-value
// accumulators start at +0, and adding ±0 to an accumulator that started at
// +0 never changes its bits, so dropping a term whose B⁻¹ factor is zero is
// exact. An update row[t] -= f·prow[t] with prow[t] = ±0 leaves a nonzero
// row[t] unchanged. The one thing the lists can change is the sign of an
// entry that is zero either way.
//
// Storage: the m×m inverse, its lists and membership marks, the
// factorization's copy of the basis matrix and computeXB's residual are
// per-solve scratch taken from a pool (see takeScratch) and handed back
// after extraction in O(nonzeros), by zeroing only the listed entries. A
// published Basis carries its own compressed (CSR) copy of the inverse.
//
// Feasibility is restored by a bound-stretch composite phase 1: the bounds
// of out-of-range basic variables are temporarily stretched to their
// current values and a ±1 objective pulls them back; a variable whose value
// re-enters its true range has its bounds restored immediately (pricing is
// recomputed every iteration, so mid-phase cost edits are free).
//
// Determinism: every choice — entering column (Dantzig with lowest-index
// tie-break, Bland's rule after a degenerate stall), leaving row (lowest
// basic column index among near-ties), factorization pivots — is index-
// deterministic, and the final answer is canonicalized (see canonicalize)
// so that warm and cold solves of the same problem return byte-identical
// solutions. No maps, no wall clock, no randomness; the pooled scratch is
// all zero whenever it is taken, so its history cannot reach a result.
package lp

import (
	"math"
	"sync"
)

const (
	refactorEvery = 128   // pivots between basis refactorizations
	stallLimit    = 200   // degenerate steps before switching to Bland's rule
	feasTol       = 1e-7  // residual infeasibility accepted after phase 1
	dualTol       = 1e-7  // reduced-cost magnitude treated as nonzero
	pivotTol      = 1e-10 // factorization pivot magnitude treated as nonsingular
)

// isZero reports f == ±0 without a float equality comparison.
func isZero(f float64) bool { return math.Float64bits(f)<<1 == 0 }

// csc is the structural constraint matrix in compressed-sparse-column form;
// duplicate terms are merged and rows appear in increasing order within
// each column.
type csc struct {
	colPtr []int32
	rowIdx []int32
	val    []float64
}

// fingerprint hashes the structural matrix (FNV-1a over the CSC arrays,
// float values by exact bit pattern). A warm basis carries the fingerprint
// of the matrix it was factorized against, so a cached inverse is only ever
// reused when the matrix is bit-identical — e.g. branch-and-bound nodes,
// which change bounds but never coefficients.
func (mat *csc) fingerprint() uint64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for _, v := range mat.colPtr {
		mix(uint64(uint32(v)))
	}
	for _, v := range mat.rowIdx {
		mix(uint64(uint32(v)))
	}
	for _, v := range mat.val {
		mix(math.Float64bits(v))
	}
	return h
}

func buildCSC(p *Problem) csc {
	n, m := len(p.names), len(p.rows)
	// Merge duplicate terms per row into (row-major) dense scratch, keeping
	// a touched list so cost stays O(nonzeros).
	type entry struct {
		row, col int32
		val      float64
	}
	var entries []entry
	scratch := make([]float64, n)
	touched := make([]int32, 0, 8)
	for i := 0; i < m; i++ {
		touched = touched[:0]
		for _, t := range p.rows[i].terms {
			if isZero(scratch[t.Var]) {
				touched = append(touched, int32(t.Var))
			}
			scratch[t.Var] += t.Coef
		}
		for _, v := range touched {
			if !isZero(scratch[v]) {
				entries = append(entries, entry{int32(i), v, scratch[v]})
			}
			scratch[v] = 0
		}
	}
	mat := csc{colPtr: make([]int32, n+1)}
	for _, e := range entries {
		mat.colPtr[e.col+1]++
	}
	for j := 0; j < n; j++ {
		mat.colPtr[j+1] += mat.colPtr[j]
	}
	mat.rowIdx = make([]int32, len(entries))
	mat.val = make([]float64, len(entries))
	next := make([]int32, n)
	copy(next, mat.colPtr[:n])
	// Entries were produced row-major, so per-column row order is ascending.
	for _, e := range entries {
		k := next[e.col]
		mat.rowIdx[k] = e.row
		mat.val[k] = e.val
		next[e.col]++
	}
	return mat
}

// revised is the mutable solver state for one block. Columns 0..n-1 are the
// structural variables; column n+i is row i's logical: [0,+inf) for ≤,
// (-inf,0] for ≥, [0,0] for =.
type revised struct {
	opts Options

	n, m, N int
	mat     csc
	hash    uint64 // mat.fingerprint(), for warm-start inverse reuse
	rhs     []float64
	lo, hi  []float64 // working bounds per column (stretched in phase 1)
	cost    []float64 // phase-2 objective per column (0 for logicals)

	basis []int32     // column basic in row i
	inRow []int32     // row a column is basic in, or -1
	stat  []varStatus // per column
	xB    []float64   // value of basis[i]

	// Pooled scratch (see scratch): binv is the m×m basis inverse, pat[i]
	// the columns of row i that may be nonzero and on[i] their membership
	// marks.
	sc   *scratch
	binv [][]float64
	pat  [][]int32
	on   [][]bool

	y, z, w []float64 // scratch: duals, reduced costs, FTRAN column

	iters       int
	refactors   int
	sinceFactor int

	// Phase-1 bound-stretch bookkeeping.
	trueLo, trueHi []float64
	p1cost         []float64
	stretched      []bool
	nStretched     int
}

func newRevised(p *Problem, o Options) *revised {
	n, m := len(p.names), len(p.rows)
	mc := p.matrix()
	r := &revised{opts: o, n: n, m: m, N: n + m, mat: mc.mat, hash: mc.hash}
	// All working state comes from pooled scratch, zeroed: the solver is
	// created per solve, and a branch-and-bound search runs thousands. One
	// backing array holds the float vectors (7 N-sized + 4 m-sized).
	r.sc = takeScratch(m)
	r.binv, r.pat, r.on = r.sc.binv, r.sc.pat, r.sc.on
	buf := zeroed(&r.sc.vec, 7*r.N+4*m)
	cut := func(k int) (s []float64) { s, buf = buf[:k:k], buf[k:]; return }
	r.lo, r.hi, r.cost = cut(r.N), cut(r.N), cut(r.N)
	r.trueLo, r.trueHi, r.p1cost, r.z = cut(r.N), cut(r.N), cut(r.N), cut(r.N)
	r.rhs, r.xB, r.y, r.w = cut(m), cut(m), cut(m), cut(m)
	for j := 0; j < n; j++ {
		r.lo[j], r.hi[j] = p.lo[j], p.hi[j]
		r.cost[j] = p.obj[j]
	}
	for i := 0; i < m; i++ {
		r.rhs[i] = p.rows[i].rhs
		switch p.rows[i].rel {
		case LE:
			r.lo[n+i], r.hi[n+i] = 0, math.Inf(1)
		case GE:
			r.lo[n+i], r.hi[n+i] = math.Inf(-1), 0
		case EQ:
			r.lo[n+i], r.hi[n+i] = 0, 0
		}
	}
	ints := zeroed(&r.sc.ints, m+r.N)
	r.basis, r.inRow = ints[:m:m], ints[m:]
	r.stat = zeroed(&r.sc.stat, r.N)
	r.stretched = zeroed(&r.sc.stretched, r.N)
	return r
}

// zeroed returns the first k elements of *b cleared, growing *b first when
// it is shorter.
func zeroed[T any](b *[]T, k int) []T {
	if cap(*b) < k {
		*b = make([]T, k)
	}
	*b = (*b)[:k]
	clear(*b)
	return *b
}

// scratch is the working storage of one solve. Between solves it sits in
// scratchPool. The m²-sized part rests all zero — every entry of binv and
// bm is zero (binv's +0), every mark is false and every list is empty — so
// a taker pays only for the entries it touches; the vectors are cleared as
// they are taken. Either way a result cannot depend on which solve used the
// scratch before.
type scratch struct {
	size int // capacity, in rows, of the backing arrays

	invBuf []float64 // size² backing of binv
	bmBuf  []float64 // size² backing of bm
	patBuf []int32   // size² backing of pat
	onBuf  []bool    // size² backing of on

	// Row views for the current taker's m, row stride m. factorize swaps
	// rows by swapping these headers, never the backing.
	binv [][]float64
	bm   [][]float64 // factorize's copy of the basis matrix
	pat  [][]int32
	on   [][]bool

	nz  []int32   // factorize: nonzero columns of the pivot row of bm
	res []float64 // computeXB: right-hand side net of nonbasic columns

	// Backing for the solver's vectors, cleared by newRevised.
	vec       []float64
	ints      []int32
	stat      []varStatus
	stretched []bool
}

// scratchPool recycles scratch across solves, including concurrent
// branch-and-bound workers; a scratch belongs to one solve at a time.
var scratchPool sync.Pool

// takeScratch returns a resting scratch with row views for an m-row block,
// reusing a pooled one when it is large enough.
func takeScratch(m int) *scratch {
	s, _ := scratchPool.Get().(*scratch)
	if s == nil || s.size < m {
		s = &scratch{
			size:   m,
			invBuf: make([]float64, m*m),
			bmBuf:  make([]float64, m*m),
			patBuf: make([]int32, m*m),
			onBuf:  make([]bool, m*m),
			binv:   make([][]float64, m),
			bm:     make([][]float64, m),
			pat:    make([][]int32, m),
			on:     make([][]bool, m),
			nz:     make([]int32, 0, m),
			res:    make([]float64, m),
		}
	}
	s.binv, s.bm, s.pat, s.on = s.binv[:m], s.bm[:m], s.pat[:m], s.on[:m]
	for i := 0; i < m; i++ {
		lo, hi := i*m, (i+1)*m
		s.binv[i] = s.invBuf[lo:hi:hi]
		s.bm[i] = s.bmBuf[lo:hi:hi]
		s.pat[i] = s.patBuf[lo:lo:hi]
		s.on[i] = s.onBuf[lo:hi:hi]
	}
	s.res = s.res[:m]
	return s
}

// release returns the solver's scratch to the pool in its resting state,
// zeroing only the listed inverse entries (bm is left zero by factorize).
// The solver must not be used afterwards.
func (r *revised) release() {
	r.clearInverse()
	scratchPool.Put(r.sc)
	r.sc, r.binv, r.pat, r.on = nil, nil, nil, nil
}

// clearInverse zeroes every listed entry of binv, clears their marks and
// empties the lists: binv becomes the all-+0 matrix.
func (r *revised) clearInverse() {
	for i, lst := range r.pat {
		row, on := r.binv[i], r.on[i]
		for _, t := range lst {
			row[t] = 0
			on[t] = false
		}
		r.pat[i] = lst[:0]
	}
}

// sortList sorts a row list in place by insertion. factorize leaves lists
// sorted and pivots append their fill-in at the end, so a list is a sorted
// run plus a short tail, for which insertion is linear.
func sortList(lst []int32) {
	for a := 1; a < len(lst); a++ {
		v := lst[a]
		b := a
		for ; b > 0 && lst[b-1] > v; b-- {
			lst[b] = lst[b-1]
		}
		lst[b] = v
	}
}

// scaleRow multiplies row k of binv by s over its list and drops entries
// that are zero from the list (storing +0), so later eliminations skip
// them. It returns the compacted list.
func (r *revised) scaleRow(k int, s float64) []int32 {
	row, on, lst := r.binv[k], r.on[k], r.pat[k]
	n := 0
	for _, t := range lst {
		v := row[t] * s
		if isZero(v) {
			row[t] = 0
			on[t] = false
			continue
		}
		row[t] = v
		lst[n] = t
		n++
	}
	r.pat[k] = lst[:n]
	return lst[:n]
}

// eliminate subtracts f times row k of binv from row i over row k's list,
// listing any fill-in in row i.
func (r *revised) eliminate(i int, f float64, k int) {
	row, prow := r.binv[i], r.binv[k]
	on, lst := r.on[i], r.pat[i]
	for _, t := range r.pat[k] {
		row[t] -= f * prow[t]
		if !on[t] {
			on[t] = true
			lst = append(lst, t)
		}
	}
	r.pat[i] = lst
}

// restingStatus returns a valid nonbasic resting bound for column j given a
// requested status: a nonbasic variable must sit at a finite bound.
func (r *revised) restingStatus(j int, want varStatus) varStatus {
	if want == atUpper {
		if !math.IsInf(r.hi[j], 1) {
			return atUpper
		}
		return atLower
	}
	if !math.IsInf(r.lo[j], -1) {
		return atLower
	}
	return atUpper
}

// setBasis installs a starting basis: the warm basis when it is shape-
// compatible and factorizes, the all-logical basis otherwise. Returns false
// only when even the logical basis fails to factorize (cannot happen: it is
// the identity; kept for symmetry with refactorize).
func (r *revised) setBasis(warm *Basis) bool {
	ok := false
	if warm != nil {
		if wn, wm := warm.Shape(); wn == r.n && wm == r.m {
			ok = true
			seen := make([]bool, r.N)
			for i := 0; i < r.m; i++ {
				v := int(warm.rowVar[i])
				if v < 0 || v >= r.N || seen[v] {
					ok = false
					break
				}
				seen[v] = true
				r.basis[i] = int32(v)
			}
			if ok {
				for j := 0; j < r.N; j++ {
					if seen[j] {
						r.stat[j] = basic
					} else {
						r.stat[j] = r.restingStatus(j, varStatus(warm.stat[j]))
					}
				}
				if warm.inv.ptr != nil && warm.matHash == r.hash && warm.updates < refactorEvery {
					// The warm basis carries the inverse it was solved with and
					// the matrix is bit-identical: scatter its nonzeros into the
					// all-zero scratch instead of paying for a refactorization.
					// The update counter carries over so drift control spans
					// solves.
					r.scatterInverse(&warm.inv)
					for j := range r.inRow {
						r.inRow[j] = -1
					}
					for i := 0; i < r.m; i++ {
						r.inRow[r.basis[i]] = int32(i)
					}
					r.sinceFactor = warm.updates
				} else {
					ok = r.factorize()
				}
			}
		}
	}
	if !ok {
		for i := 0; i < r.m; i++ {
			r.basis[i] = int32(r.n + i)
		}
		for j := 0; j < r.N; j++ {
			if j < r.n {
				r.stat[j] = r.restingStatus(j, atLower)
			} else {
				r.stat[j] = basic
			}
		}
		if !r.factorize() {
			return false
		}
	}
	r.computeXB()
	return true
}

// scatterInverse loads a cached inverse into the all-zero binv, listing
// each row's stored entries.
func (r *revised) scatterInverse(c *csr) {
	for i := 0; i < r.m; i++ {
		row, on := r.binv[i], r.on[i]
		lst := r.pat[i]
		for e := c.ptr[i]; e < c.ptr[i+1]; e++ {
			t := c.idx[e]
			row[t] = c.val[e]
			on[t] = true
			lst = append(lst, t)
		}
		r.pat[i] = lst
	}
}

// factorize rebuilds binv from the current basis by Gauss-Jordan with
// partial pivoting (largest magnitude, ties broken by lowest row). Each
// step gathers the nonzero columns of the pivot row once and updates only
// those, in bm and through the row lists in binv. It also refreshes inRow.
// Returns false when the basis matrix is singular.
func (r *revised) factorize() bool {
	r.refactors++
	m := r.m
	bm := r.sc.bm // all zero here; column i becomes A_{basis[i]}
	for k := 0; k < m; k++ {
		j := int(r.basis[k])
		if j < r.n {
			for t := r.mat.colPtr[j]; t < r.mat.colPtr[j+1]; t++ {
				bm[r.mat.rowIdx[t]][k] = r.mat.val[t]
			}
		} else {
			bm[j-r.n][k] = 1
		}
	}
	r.clearInverse()
	for i := 0; i < m; i++ {
		r.binv[i][i] = 1
		r.on[i][i] = true
		r.pat[i] = append(r.pat[i], int32(i))
	}
	for k := 0; k < m; k++ {
		p, best := -1, pivotTol
		for i := k; i < m; i++ {
			if a := math.Abs(bm[i][k]); a > best {
				p, best = i, a
			}
		}
		if p < 0 {
			for _, row := range bm {
				clear(row)
			}
			return false
		}
		if p != k {
			bm[p], bm[k] = bm[k], bm[p]
			r.binv[p], r.binv[k] = r.binv[k], r.binv[p]
			r.pat[p], r.pat[k] = r.pat[k], r.pat[p]
			r.on[p], r.on[k] = r.on[k], r.on[p]
		}
		// Columns before k of the pivot row were eliminated at their own
		// steps, so its nonzeros all lie at k or beyond.
		prow := bm[k]
		nz := r.sc.nz[:0]
		for t := k; t < m; t++ {
			if !isZero(prow[t]) {
				nz = append(nz, int32(t))
			}
		}
		inv := 1 / prow[k]
		for _, t := range nz {
			prow[t] *= inv
		}
		r.scaleRow(k, inv)
		for i := 0; i < m; i++ {
			if i == k {
				continue
			}
			row := bm[i]
			f := row[k]
			if isZero(f) {
				continue
			}
			for _, t := range nz {
				row[t] -= f * prow[t]
			}
			r.eliminate(i, f, k)
			row[k] = 0
		}
	}
	// Elimination leaves bm diagonal; zero the diagonal to return it to
	// its resting state. Fill-in was listed in elimination order: rebuild
	// the lists from the marks so they come out sorted.
	for i := 0; i < m; i++ {
		bm[i][i] = 0
		lst := r.pat[i][:0]
		for t, in := range r.on[i] {
			if in {
				lst = append(lst, int32(t))
			}
		}
		r.pat[i] = lst
	}
	for j := range r.inRow {
		r.inRow[j] = -1
	}
	for i := 0; i < m; i++ {
		r.inRow[r.basis[i]] = int32(i)
	}
	r.sinceFactor = 0
	return true
}

// nonbasicValue returns the resting value of nonbasic column j.
func (r *revised) nonbasicValue(j int) float64 {
	if r.stat[j] == atUpper {
		return r.hi[j]
	}
	return r.lo[j]
}

// value returns the current value of any column.
func (r *revised) value(j int) float64 {
	if r.stat[j] == basic {
		return r.xB[r.inRow[j]]
	}
	return r.nonbasicValue(j)
}

// computeXB recomputes the basic values from scratch: xB = binv·(rhs − N·x_N)
// with nonbasic contributions accumulated in ascending column order. Each
// row's product runs over its list, sorted first so the terms are summed in
// ascending column order like the dense dot product.
func (r *revised) computeXB() {
	res := r.sc.res
	copy(res, r.rhs)
	for j := 0; j < r.n; j++ {
		if r.stat[j] == basic {
			continue
		}
		v := r.nonbasicValue(j)
		if isZero(v) {
			continue
		}
		for t := r.mat.colPtr[j]; t < r.mat.colPtr[j+1]; t++ {
			res[r.mat.rowIdx[t]] -= r.mat.val[t] * v
		}
	}
	for i := 0; i < r.m; i++ {
		j := r.n + i
		if r.stat[j] != basic {
			res[i] -= r.nonbasicValue(j)
		}
	}
	for i := 0; i < r.m; i++ {
		s := 0.0
		row := r.binv[i]
		sortList(r.pat[i])
		for _, k := range r.pat[i] {
			s += row[k] * res[k]
		}
		r.xB[i] = s
	}
}

// price computes duals y = c_B·binv and reduced costs z_j = c_j − y·A_j for
// every column under objective c. Each dual y_t gathers its terms in
// ascending row order; rows with c_B = 0 and unlisted (zero) entries are
// skipped.
func (r *revised) price(c []float64) {
	y := r.y
	clear(y)
	for k, bk := range r.basis {
		cb := c[bk]
		if isZero(cb) {
			continue
		}
		row := r.binv[k]
		for _, t := range r.pat[k] {
			y[t] += cb * row[t]
		}
	}
	colPtr, rowIdx, val := r.mat.colPtr, r.mat.rowIdx, r.mat.val
	for j := 0; j < r.n; j++ {
		s := c[j]
		for t := colPtr[j]; t < colPtr[j+1]; t++ {
			s -= y[rowIdx[t]] * val[t]
		}
		r.z[j] = s
	}
	for i := 0; i < r.m; i++ {
		r.z[r.n+i] = c[r.n+i] - y[i]
	}
}

// chooseEntering picks an improving nonbasic column and direction (+1 from
// lower, -1 from upper), or (-1, 0) at optimality. Dantzig prefers the
// lowest index among equal scores; Bland takes the first improving index.
func (r *revised) chooseEntering(tol float64, bland bool) (int, float64) {
	bestJ, bestScore, bestDir := -1, tol, 0.0
	lo, hi, z := r.lo[:r.N], r.hi[:r.N], r.z[:r.N]
	for j, st := range r.stat[:r.N] {
		if st == basic || hi[j]-lo[j] < tol {
			continue
		}
		var score, dir float64
		if st == atLower {
			score, dir = z[j], 1
		} else {
			score, dir = -z[j], -1
		}
		if score > tol {
			if bland {
				return j, dir
			}
			if score > bestScore {
				bestScore, bestJ, bestDir = score, j, dir
			}
		}
	}
	return bestJ, bestDir
}

// ftran computes w = binv·A_j, the entering column in the current basis. It
// reads columns of binv, which the row lists do not index, so it stays
// dense: O(m) per nonzero of A_j.
func (r *revised) ftran(j int) {
	w := r.w
	clear(w)
	if j < r.n {
		for t := r.mat.colPtr[j]; t < r.mat.colPtr[j+1]; t++ {
			a := r.mat.val[t]
			k := int(r.mat.rowIdx[t])
			for i, row := range r.binv {
				w[i] += row[k] * a
			}
		}
	} else {
		k := j - r.n
		for i, row := range r.binv {
			w[i] = row[k]
		}
	}
}

// ratioTest returns the maximum step for entering column j in direction
// dir, the limiting row (-1 for a bound flip) and whether the leaving basic
// variable departs at its upper bound. Ties within tol are broken toward
// the lowest basic column index, so the pivot choice is index-deterministic
// regardless of float noise.
func (r *revised) ratioTest(j int, dir, tol float64) (tMax float64, leaveRow int, leaveAtUpper bool) {
	tMax = r.hi[j] - r.lo[j] // entering variable's own span
	leaveRow = -1
	for i := 0; i < r.m; i++ {
		coef := r.w[i] * dir
		bi := r.basis[i]
		switch {
		case coef > tol:
			lob := r.lo[bi]
			if math.IsInf(lob, -1) {
				continue
			}
			lim := (r.xB[i] - lob) / coef
			if lim < tMax-tol || (lim < tMax+tol && r.betterLeave(leaveRow, i)) {
				tMax, leaveRow, leaveAtUpper = lim, i, false
			}
		case coef < -tol:
			hib := r.hi[bi]
			if math.IsInf(hib, 1) {
				continue
			}
			lim := (hib - r.xB[i]) / -coef
			if lim < tMax-tol || (lim < tMax+tol && r.betterLeave(leaveRow, i)) {
				tMax, leaveRow, leaveAtUpper = lim, i, true
			}
		}
	}
	if tMax < 0 {
		tMax = 0
	}
	return tMax, leaveRow, leaveAtUpper
}

func (r *revised) betterLeave(cur, cand int) bool {
	if cur < 0 {
		return true
	}
	return r.basis[cand] < r.basis[cur]
}

// applyStep moves entering column j by step = tMax*dir, updating xB.
// Basic values drifting a hair outside a finite bound are snapped back.
func (r *revised) applyStep(j int, dir, tMax float64) {
	if isZero(tMax) {
		return
	}
	step := tMax * dir
	for i := 0; i < r.m; i++ {
		r.xB[i] -= step * r.w[i]
		bi := r.basis[i]
		if lob := r.lo[bi]; r.xB[i] < lob && r.xB[i] > lob-1e-9 {
			r.xB[i] = lob
		} else if hib := r.hi[bi]; r.xB[i] > hib && r.xB[i] < hib+1e-9 {
			r.xB[i] = hib
		}
	}
}

// pivot replaces the basic column of leaveRow with j (entering at enterVal)
// and updates binv by the elementary row operation of the pivot: scale the
// pivot row by 1/w[leaveRow], then eliminate w from every other row, both
// over the pivot row's list.
func (r *revised) pivot(leaveRow, j int, enterVal float64, leaveAtUpper bool) {
	leaving := r.basis[leaveRow]
	if leaveAtUpper {
		r.stat[leaving] = atUpper
	} else {
		r.stat[leaving] = atLower
	}
	r.inRow[leaving] = -1
	r.scaleRow(leaveRow, 1/r.w[leaveRow])
	for i := 0; i < r.m; i++ {
		if i == leaveRow {
			continue
		}
		f := r.w[i]
		if isZero(f) {
			continue
		}
		r.eliminate(i, f, leaveRow)
	}
	r.basis[leaveRow] = int32(j)
	r.stat[j] = basic
	r.inRow[j] = int32(leaveRow)
	r.xB[leaveRow] = enterVal
	r.sinceFactor++
}

// solveStatus is iterate's outcome; numTrouble asks the caller to fall back
// to the dense tableau.
type solveStatus int

const (
	solvedOptimal solveStatus = iota
	solvedUnbounded
	solvedIterLimit
	numTrouble
)

// iterate runs primal simplex to optimality under objective c. In phase 1
// (phase1 true) it additionally caps the entering step at a stretched
// variable's true bound and restores bounds of variables whose values
// re-enter their true range after every step.
func (r *revised) iterate(c []float64, phase1 bool) solveStatus {
	tol := r.opts.Tol
	stall := 0
	for ; r.iters < r.opts.MaxIters; r.iters++ {
		if r.sinceFactor >= refactorEvery {
			if !r.factorize() {
				return numTrouble
			}
			r.computeXB()
		}
		r.price(c)
		j, dir := r.chooseEntering(tol, stall > stallLimit)
		if j < 0 {
			return solvedOptimal
		}
		r.ftran(j)
		tMax, leaveRow, leaveAtUpper := r.ratioTest(j, dir, tol)
		if phase1 && r.stretched[j] {
			// The entering variable is itself stretched: cap the step at its
			// true bound so a violation-repairing move can never run away
			// along an unbounded ray.
			capStep := math.Inf(1)
			if dir > 0 && !math.IsInf(r.trueLo[j], -1) && r.nonbasicValue(j) < r.trueLo[j] {
				capStep = r.trueLo[j] - r.nonbasicValue(j)
			} else if dir < 0 && !math.IsInf(r.trueHi[j], 1) && r.nonbasicValue(j) > r.trueHi[j] {
				capStep = r.nonbasicValue(j) - r.trueHi[j]
			}
			if !math.IsInf(capStep, 1) && capStep <= tMax {
				r.applyStep(j, dir, capStep)
				if dir > 0 {
					r.lo[j] = r.trueLo[j]
					r.stat[j] = atLower
				} else {
					r.hi[j] = r.trueHi[j]
					r.stat[j] = atUpper
				}
				r.unstretchIfHome(j)
				if r.nStretched > 0 {
					r.restoreScan()
				}
				if capStep < tol {
					stall++
				} else {
					stall = 0
				}
				continue
			}
		}
		if math.IsInf(tMax, 1) {
			if phase1 {
				return numTrouble
			}
			return solvedUnbounded
		}
		if tMax < tol {
			stall++
		} else {
			stall = 0
		}
		if leaveRow < 0 {
			r.applyStep(j, dir, tMax)
			if r.stat[j] == atLower {
				r.stat[j] = atUpper
			} else {
				r.stat[j] = atLower
			}
		} else {
			enterVal := r.nonbasicValue(j) + tMax*dir
			r.applyStep(j, dir, tMax)
			r.pivot(leaveRow, j, enterVal, leaveAtUpper)
		}
		if phase1 && r.nStretched > 0 {
			r.restoreScan()
		}
	}
	return solvedIterLimit
}

// stretchSetup stretches the bounds of every out-of-range basic variable to
// its current value and installs the ±1 phase-1 objective that pulls it
// home. Returns whether any stretching was needed.
func (r *revised) stretchSetup() bool {
	copy(r.trueLo, r.lo)
	copy(r.trueHi, r.hi)
	for j := range r.p1cost {
		r.p1cost[j] = 0
		r.stretched[j] = false
	}
	r.nStretched = 0
	tol := r.opts.Tol
	for i := 0; i < r.m; i++ {
		j := r.basis[i]
		v := r.xB[i]
		if v < r.lo[j]-tol {
			r.lo[j] = v
			r.p1cost[j] = 1
			r.stretched[j] = true
			r.nStretched++
		} else if v > r.hi[j]+tol {
			r.hi[j] = v
			r.p1cost[j] = -1
			r.stretched[j] = true
			r.nStretched++
		}
	}
	return r.nStretched > 0
}

// unstretchIfHome restores column j's true bounds when its current value
// lies inside them, removing it from the phase-1 objective.
func (r *revised) unstretchIfHome(j int) {
	if !r.stretched[j] {
		return
	}
	tol := r.opts.Tol
	v := r.value(j)
	if v >= r.trueLo[j]-tol && v <= r.trueHi[j]+tol {
		r.lo[j] = r.trueLo[j]
		r.hi[j] = r.trueHi[j]
		r.p1cost[j] = 0
		r.stretched[j] = false
		r.nStretched--
	}
}

// restoreScan applies unstretchIfHome to every still-stretched column in
// ascending index order.
func (r *revised) restoreScan() {
	for j := 0; j < r.N; j++ {
		if r.stretched[j] {
			r.unstretchIfHome(j)
		}
	}
}

// stretchResidual sums how far stretched columns still sit outside their
// true ranges.
func (r *revised) stretchResidual() float64 {
	res := 0.0
	for j := 0; j < r.N; j++ {
		if !r.stretched[j] {
			continue
		}
		v := r.value(j)
		if v < r.trueLo[j] {
			res += r.trueLo[j] - v
		} else if v > r.trueHi[j] {
			res += v - r.trueHi[j]
		}
	}
	return res
}

// finishStretch force-restores every remaining stretched column (all within
// feasTol of home after a successful phase 1), snapping values onto the
// true range.
func (r *revised) finishStretch() {
	for j := 0; j < r.N; j++ {
		if !r.stretched[j] {
			continue
		}
		r.lo[j] = r.trueLo[j]
		r.hi[j] = r.trueHi[j]
		r.p1cost[j] = 0
		r.stretched[j] = false
		if r.stat[j] == basic {
			i := r.inRow[j]
			if r.xB[i] < r.lo[j] {
				r.xB[i] = r.lo[j]
			} else if r.xB[i] > r.hi[j] {
				r.xB[i] = r.hi[j]
			}
		} else {
			// Resting at a (stretched) bound within feasTol of the true
			// range: snap onto the nearest true bound.
			v := r.value(j)
			if v <= r.lo[j] || math.IsInf(r.hi[j], 1) {
				r.stat[j] = atLower
			} else {
				r.stat[j] = atUpper
			}
		}
	}
	r.nStretched = 0
}
