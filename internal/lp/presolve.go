// Presolve for the revised simplex path: a deterministic reduce → solve →
// postsolve pipeline. Reductions, applied to a working copy until a fixed
// point (the input Problem is never mutated):
//
//   - empty-row consistency checks and removal
//   - singleton rows folded into variable bounds
//   - variables fixed by (tightened) bounds, folded into row activities
//   - redundant rows removed via finite activity bounds
//   - dominated columns (sign- and objective-based) fixed at a bound
//   - implied-free singleton columns in equality rows substituted out
//
// followed by decomposition of the reduced problem into independent blocks
// (connected components of the variable/row bipartite graph), which is what
// makes fleet-sized allocation problems — where routing decouples model
// families — tractable inside one control period. Postsolve maps block
// solutions back to the full variable space and assembles a full-problem
// basis, all in fixed index order so the pipeline is byte-deterministic.
package lp

import "math"

// presRow is one live constraint with merged terms (ascending variable
// index, exact-zero coefficients dropped, fixed variables folded into rhs).
type presRow struct {
	terms []Term
	rel   Relation
	rhs   float64
}

// blockProblem is one independent subproblem of the reduced LP.
type blockProblem struct {
	vars []int // original variable indices, ascending
	rows []int // original row indices, ascending
	prob *Problem
}

// substitution records one eliminated implied-free column singleton:
// variable v satisfied coef·x_v + Σ terms = rhs and is reconstructed in
// postsolve (in reverse elimination order).
type substitution struct {
	row   int
	v     int
	coef  float64
	rhs   float64
	terms []Term
}

// presolve is the outcome of the reduction loop.
type presolve struct {
	n, m int
	tol  float64

	infeasible bool
	// unboundedRay marks a free column whose objective improves without
	// limit; the verdict becomes Unbounded only if every block is feasible
	// (matching the two-phase tableau, which proves feasibility first).
	unboundedRay bool

	lo, hi  []float64 // working (tightened) bounds
	workObj []float64 // objective after substitutions

	isFixed  []bool
	fixedVal []float64
	fixedHi  []bool // fixed at the upper bound (basis bookkeeping)

	isSub      []bool
	subs       []substitution
	rowDropped []bool
	rowSubVar  []int // substituted variable basic in this row, or -1

	freeVar []bool // reduced column intersecting no live row
	rows    []presRow
	blocks  []*blockProblem
}

func runPresolve(p *Problem, o Options) *presolve {
	n, m := len(p.names), len(p.rows)
	pr := &presolve{n: n, m: m, tol: o.Tol}
	pr.lo = append([]float64(nil), p.lo...)
	pr.hi = append([]float64(nil), p.hi...)
	pr.workObj = append([]float64(nil), p.obj...)
	pr.isFixed = make([]bool, n)
	pr.fixedVal = make([]float64, n)
	pr.fixedHi = make([]bool, n)
	pr.isSub = make([]bool, n)
	pr.rowDropped = make([]bool, m)
	pr.rowSubVar = make([]int, m)
	pr.freeVar = make([]bool, n)
	for i := range pr.rowSubVar {
		pr.rowSubVar[i] = -1
	}

	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		pr.buildLiveRows(p)
		changed := pr.reduceRows()
		if pr.infeasible {
			return pr
		}
		if pr.fixFromBounds() {
			changed = true
		}
		if pr.fixDominated() {
			changed = true
		}
		if pr.substituteSingleton() {
			changed = true
		}
		if !changed {
			break
		}
	}
	// Re-merge and re-check once more: the loop may have exited on the pass
	// cap right after a fix, leaving a now-empty row unverified.
	pr.buildLiveRows(p)
	pr.reduceRows()
	if pr.infeasible {
		return pr
	}
	pr.findFreeAndBlocks(p)
	return pr
}

// buildLiveRows rebuilds the merged live rows from the original problem,
// folding fixed variables into the right-hand side.
func (pr *presolve) buildLiveRows(p *Problem) {
	pr.rows = make([]presRow, pr.m)
	scratch := make([]float64, pr.n)
	touched := make([]int32, 0, 8)
	for i := 0; i < pr.m; i++ {
		if pr.rowDropped[i] {
			continue
		}
		r := p.rows[i]
		touched = touched[:0]
		for _, t := range r.terms {
			if isZero(scratch[t.Var]) {
				touched = append(touched, int32(t.Var))
			}
			scratch[t.Var] += t.Coef
		}
		row := presRow{rel: r.rel, rhs: r.rhs}
		for v := range p.names { // ascending variable order
			c := scratch[v]
			if isZero(c) {
				continue
			}
			if pr.isFixed[v] {
				row.rhs -= c * pr.fixedVal[v]
			} else {
				row.terms = append(row.terms, Term{Var: v, Coef: c})
			}
		}
		for _, v := range touched {
			scratch[v] = 0
		}
		pr.rows[i] = row
	}
}

// reduceRows drops empty, singleton and redundant rows, tightening bounds
// and detecting infeasibility from row activities.
func (pr *presolve) reduceRows() bool {
	changed := false
	for i := 0; i < pr.m; i++ {
		if pr.rowDropped[i] {
			continue
		}
		row := &pr.rows[i]
		switch len(row.terms) {
		case 0:
			ok := true
			switch row.rel {
			case LE:
				ok = row.rhs >= -feasTol
			case GE:
				ok = row.rhs <= feasTol
			case EQ:
				ok = math.Abs(row.rhs) <= feasTol
			}
			if !ok {
				pr.infeasible = true
				return changed
			}
			pr.rowDropped[i] = true
			changed = true
			continue
		case 1:
			t := row.terms[0]
			bound := row.rhs / t.Coef
			tightenHi := row.rel == LE && t.Coef > 0 || row.rel == GE && t.Coef < 0
			tightenLo := row.rel == GE && t.Coef > 0 || row.rel == LE && t.Coef < 0
			if row.rel == EQ {
				tightenLo, tightenHi = true, true
			}
			if tightenHi && bound < pr.hi[t.Var] {
				pr.hi[t.Var] = bound
			}
			if tightenLo && bound > pr.lo[t.Var] {
				pr.lo[t.Var] = bound
			}
			if pr.hi[t.Var] < pr.lo[t.Var] {
				if pr.lo[t.Var]-pr.hi[t.Var] > feasTol {
					pr.infeasible = true
					return changed
				}
				pr.hi[t.Var] = pr.lo[t.Var]
			}
			pr.rowDropped[i] = true
			changed = true
			continue
		}
		minAct, maxAct := 0.0, 0.0
		for _, t := range row.terms {
			if t.Coef > 0 {
				minAct += t.Coef * pr.lo[t.Var]
				maxAct += t.Coef * pr.hi[t.Var]
			} else {
				minAct += t.Coef * pr.hi[t.Var]
				maxAct += t.Coef * pr.lo[t.Var]
			}
		}
		switch row.rel {
		case LE:
			if minAct > row.rhs+feasTol {
				pr.infeasible = true
				return changed
			}
			if maxAct <= row.rhs+pr.tol {
				pr.rowDropped[i] = true
				changed = true
			}
		case GE:
			if maxAct < row.rhs-feasTol {
				pr.infeasible = true
				return changed
			}
			if minAct >= row.rhs-pr.tol {
				pr.rowDropped[i] = true
				changed = true
			}
		case EQ:
			if minAct > row.rhs+feasTol || maxAct < row.rhs-feasTol {
				pr.infeasible = true
				return changed
			}
		}
	}
	return changed
}

// fixFromBounds fixes every variable whose working bound interval has
// collapsed (branching pins integer variables exactly this way).
func (pr *presolve) fixFromBounds() bool {
	changed := false
	for v := 0; v < pr.n; v++ {
		if pr.isFixed[v] || pr.isSub[v] {
			continue
		}
		if pr.hi[v]-pr.lo[v] <= pr.tol {
			pr.isFixed[v] = true
			pr.fixedVal[v] = pr.lo[v]
			changed = true
		}
	}
	return changed
}

// fixDominated fixes columns whose objective and constraint signs prove a
// bound-optimal value (dominated-variant elimination): moving the variable
// toward that bound never hurts the objective and never tightens any
// constraint. Fixing toward an infinite bound is never attempted; a free
// improving column is left for the simplex to expose as an unbounded ray.
func (pr *presolve) fixDominated() bool {
	type colSign struct {
		posLE, negLE bool // appears in ≤ with positive/negative coefficient
		posGE, negGE bool
		inEQ         bool
	}
	signs := make([]colSign, pr.n)
	for i := 0; i < pr.m; i++ {
		if pr.rowDropped[i] {
			continue
		}
		row := &pr.rows[i]
		for _, t := range row.terms {
			s := &signs[t.Var]
			switch row.rel {
			case LE:
				if t.Coef > 0 {
					s.posLE = true
				} else {
					s.negLE = true
				}
			case GE:
				if t.Coef > 0 {
					s.posGE = true
				} else {
					s.negGE = true
				}
			case EQ:
				s.inEQ = true
			}
		}
	}
	changed := false
	for v := 0; v < pr.n; v++ {
		if pr.isFixed[v] || pr.isSub[v] {
			continue
		}
		s := signs[v]
		if s.inEQ {
			continue
		}
		if pr.workObj[v] <= 0 && !s.negLE && !s.posGE {
			pr.isFixed[v] = true
			pr.fixedVal[v] = pr.lo[v]
			changed = true
			continue
		}
		if pr.workObj[v] >= 0 && !s.posLE && !s.negGE && !math.IsInf(pr.hi[v], 1) {
			pr.isFixed[v] = true
			pr.fixedVal[v] = pr.hi[v]
			pr.fixedHi[v] = true
			changed = true
		}
	}
	return changed
}

// substituteSingleton eliminates at most one implied-free column singleton
// from an equality row per pass (column counts are recomputed on the next
// pass). The variable's bounds must be implied by the row and the other
// variables' bounds, so dropping them loses nothing.
func (pr *presolve) substituteSingleton() bool {
	colCount := make([]int, pr.n)
	for i := 0; i < pr.m; i++ {
		if pr.rowDropped[i] {
			continue
		}
		for _, t := range pr.rows[i].terms {
			colCount[t.Var]++
		}
	}
	for i := 0; i < pr.m; i++ {
		if pr.rowDropped[i] || pr.rows[i].rel != EQ {
			continue
		}
		row := &pr.rows[i]
		for _, t := range row.terms {
			v := t.Var
			if colCount[v] != 1 || pr.isFixed[v] || pr.isSub[v] || math.Abs(t.Coef) < 1e-7 {
				continue
			}
			// Implied range of v over the other variables' boxes.
			impLo, impHi := row.rhs, row.rhs
			for _, u := range row.terms {
				if u.Var == v {
					continue
				}
				if u.Coef > 0 {
					impLo -= u.Coef * pr.hi[u.Var]
					impHi -= u.Coef * pr.lo[u.Var]
				} else {
					impLo -= u.Coef * pr.lo[u.Var]
					impHi -= u.Coef * pr.hi[u.Var]
				}
			}
			impLo, impHi = impLo/t.Coef, impHi/t.Coef
			if impLo > impHi {
				impLo, impHi = impHi, impLo
			}
			if impLo < pr.lo[v]-pr.tol || impHi > pr.hi[v]+pr.tol {
				continue
			}
			sub := substitution{row: i, v: v, coef: t.Coef, rhs: row.rhs}
			for _, u := range row.terms {
				if u.Var != v {
					sub.terms = append(sub.terms, u)
				}
			}
			pr.subs = append(pr.subs, sub)
			pr.isSub[v] = true
			pr.rowDropped[i] = true
			pr.rowSubVar[i] = v
			// Fold v out of the objective: c_k ← c_k − c_v·a_k/a_v.
			cv := pr.workObj[v]
			if !isZero(cv) {
				for _, u := range sub.terms {
					pr.workObj[u.Var] -= cv * u.Coef / t.Coef
				}
				pr.workObj[v] = 0
			}
			return true
		}
	}
	return false
}

// findFreeAndBlocks classifies the surviving columns: columns meeting no
// live row are decided directly (or flag an unbounded ray), the rest are
// grouped into connected components, each becoming an independent block
// subproblem.
func (pr *presolve) findFreeAndBlocks(p *Problem) {
	// Union-find over variables; the root is always the smallest index, so
	// block identity and order are canonical.
	parent := make([]int, pr.n)
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	inRow := make([]bool, pr.n)
	for i := 0; i < pr.m; i++ {
		if pr.rowDropped[i] {
			continue
		}
		terms := pr.rows[i].terms
		for k := range terms {
			inRow[terms[k].Var] = true
			if k > 0 {
				union(terms[0].Var, terms[k].Var)
			}
		}
	}
	for v := 0; v < pr.n; v++ {
		if pr.isFixed[v] || pr.isSub[v] || inRow[v] {
			continue
		}
		pr.freeVar[v] = true
		switch {
		case pr.workObj[v] > 0:
			if math.IsInf(pr.hi[v], 1) {
				pr.unboundedRay = true
				pr.fixedVal[v] = pr.lo[v] // bound-feasible filler if X is still assembled
			} else {
				pr.fixedVal[v] = pr.hi[v]
				pr.fixedHi[v] = true
			}
		default:
			pr.fixedVal[v] = pr.lo[v]
		}
	}

	// Group live variables by root, blocks ordered by smallest member.
	blockOf := make([]int, pr.n)
	for v := range blockOf {
		blockOf[v] = -1
	}
	for v := 0; v < pr.n; v++ {
		if !inRow[v] || pr.isFixed[v] || pr.isSub[v] {
			continue
		}
		root := find(v)
		if blockOf[root] < 0 {
			blockOf[root] = len(pr.blocks)
			pr.blocks = append(pr.blocks, &blockProblem{})
		}
		b := pr.blocks[blockOf[root]]
		blockOf[v] = blockOf[root]
		b.vars = append(b.vars, v)
	}
	for i := 0; i < pr.m; i++ {
		if pr.rowDropped[i] || len(pr.rows[i].terms) == 0 {
			continue
		}
		b := pr.blocks[blockOf[find(pr.rows[i].terms[0].Var)]]
		b.rows = append(b.rows, i)
	}
	for _, b := range pr.blocks {
		local := make(map[int]int, len(b.vars))
		b.prob = NewProblem()
		for k, v := range b.vars {
			local[v] = k
			b.prob.AddVariable(p.names[v], pr.lo[v], pr.hi[v])
			b.prob.SetObjective(k, pr.workObj[v])
		}
		for _, i := range b.rows {
			row := pr.rows[i]
			terms := make([]Term, len(row.terms))
			for k, t := range row.terms {
				terms[k] = Term{Var: local[t.Var], Coef: t.Coef}
			}
			b.prob.AddConstraint(terms, row.rel, row.rhs)
		}
	}
}

// postsolve maps block solutions back to the full variable space: fixed and
// free values first, then block values, then substituted variables in
// reverse elimination order, clamped onto their original bounds against
// floating-point drift.
func (pr *presolve) postsolve(p *Problem, blockX [][]float64) []float64 {
	x := make([]float64, pr.n)
	for v := 0; v < pr.n; v++ {
		if pr.isFixed[v] || pr.freeVar[v] {
			x[v] = pr.fixedVal[v]
		}
	}
	for bi, b := range pr.blocks {
		bx := blockX[bi]
		if bx == nil {
			continue
		}
		for k, v := range b.vars {
			x[v] = bx[k]
		}
	}
	for k := len(pr.subs) - 1; k >= 0; k-- {
		s := pr.subs[k]
		val := s.rhs
		for _, t := range s.terms {
			val -= t.Coef * x[t.Var]
		}
		val /= s.coef
		if val < p.lo[s.v] && val > p.lo[s.v]-feasTol {
			val = p.lo[s.v]
		} else if !math.IsInf(p.hi[s.v], 1) && val > p.hi[s.v] && val < p.hi[s.v]+feasTol {
			val = p.hi[s.v]
		}
		x[s.v] = val
	}
	return x
}

// assembleBasis builds a full-problem basis from the block bases: dropped
// rows keep their logical basic, substituted rows make their eliminated
// variable basic, fixed/free columns rest at the bound they were fixed to.
// Returns nil if any block solved without a basis (dense fallback).
func (pr *presolve) assembleBasis(blockBases []*Basis) *Basis {
	b := NewLogicalBasis(pr.n, pr.m)
	for v := 0; v < pr.n; v++ {
		if (pr.isFixed[v] || pr.freeVar[v]) && pr.fixedHi[v] {
			b.stat[v] = uint8(atUpper)
		}
	}
	for bi, blk := range pr.blocks {
		if blockBases[bi] == nil {
			return nil
		}
		b.Absorb(blockBases[bi], blk.vars, blk.rows)
	}
	for i := 0; i < pr.m; i++ {
		if v := pr.rowSubVar[i]; v >= 0 {
			b.rowVar[i] = int32(v)
			b.stat[v] = uint8(basic)
			b.stat[pr.n+i] = uint8(atLower)
		}
	}
	return b
}

// solveReduced is the default Solve path: presolve, solve each block with
// the revised simplex (projected warm basis, dense-tableau fallback on
// numerical trouble), postsolve, and reassemble the full solution with the
// objective recomputed against the original problem in index order.
func solveReduced(p *Problem, o Options) Solution {
	pr := runPresolve(p, o)
	if pr.infeasible {
		return Solution{Status: Infeasible}
	}

	status := Optimal
	iters, refactors, fallbacks := 0, 0, 0
	result := func(st Status) Solution {
		return Solution{Status: st, Iters: iters, Refactors: refactors, DenseFallback: fallbacks}
	}
	blockX := make([][]float64, len(pr.blocks))
	blockBases := make([]*Basis, len(pr.blocks))
	for bi, blk := range pr.blocks {
		var warm *Basis
		if o.WarmBasis != nil {
			if wn, wm := o.WarmBasis.Shape(); wn == pr.n && wm == pr.m {
				warm = o.WarmBasis.Project(blk.vars, blk.rows)
			}
		}
		sol, ok := solveBlock(blk.prob, o, warm)
		if !ok {
			t := newTableau(blk.prob, o)
			sol = t.solve()
			sol.Basis = nil
			fallbacks++
		}
		iters += sol.Iters
		refactors += sol.Refactors
		switch sol.Status {
		case Infeasible:
			return result(Infeasible)
		case Unbounded:
			if status != Infeasible {
				status = Unbounded
			}
		case IterLimit:
			if status == Optimal {
				status = IterLimit
			}
			blockX[bi] = sol.X
		default:
			blockX[bi] = sol.X
			blockBases[bi] = sol.Basis
		}
	}
	if pr.unboundedRay && status == Optimal {
		status = Unbounded
	}
	if status == Unbounded {
		return result(Unbounded)
	}

	x := pr.postsolve(p, blockX)
	obj := 0.0
	for v := 0; v < pr.n; v++ {
		obj += p.obj[v] * x[v]
	}
	sol := result(status)
	sol.Objective, sol.X = obj, x
	if status == Optimal {
		sol.Basis = pr.assembleBasis(blockBases)
	}
	return sol
}
