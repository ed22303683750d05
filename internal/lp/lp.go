// Package lp implements simplex solvers for linear programs with bounded
// variables:
//
//	maximize    cᵀx
//	subject to  a_iᵀx (≤ | = | ≥) b_i   for each constraint i
//	            lo_j ≤ x_j ≤ hi_j       for each variable j
//
// It is the LP engine underneath the branch-and-bound MILP solver in
// internal/milp, standing in for the commercial solver (Gurobi) used by the
// Proteus paper.
//
// The default pipeline (presolve.go, revised.go) presolves the problem —
// variable fixing, dominated-column elimination, redundant-row removal,
// singleton-column substitution, independent-block decomposition — and
// solves each reduced block with a sparse revised simplex (CSC constraint
// matrix, a basis inverse whose every pass skips its exact zeros through
// per-row nonzero lists, deterministic Gauss-Jordan refactorization,
// bound-stretch composite phase 1) that accepts a warm-start Basis, whose
// compressed copy of the inverse lets a same-matrix re-solve start without
// factorizing; a postsolve pass maps the reduced solution back
// deterministically. The original dense two-phase tableau (tableau.go) is
// retained both as the fallback when the revised path hits numerical
// trouble and as an independent cross-check oracle (Options.Dense). Both
// solvers support finite lower bounds, finite or infinite upper bounds
// natively (bounded-variable simplex, so x ≤ u never costs a row), and fall
// back from Dantzig to Bland's rule to escape degenerate cycling.
package lp

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Relation is the sense of a linear constraint.
type Relation int

// Constraint senses.
const (
	LE Relation = iota // a·x ≤ b
	GE                 // a·x ≥ b
	EQ                 // a·x = b
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  int
	Coef float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create one with NewProblem.
type Problem struct {
	names []string
	lo    []float64
	hi    []float64
	obj   []float64

	rows []row

	// mat memoizes the CSC form of the constraint matrix plus its
	// fingerprint. Bounds and objective edits keep it valid; AddVariable and
	// AddConstraint invalidate it. Atomic so concurrent solves of one
	// problem stay race-free; a matCache is immutable once published.
	mat atomic.Pointer[matCache]
}

// matCache bundles the CSC matrix with its content fingerprint.
type matCache struct {
	mat  csc
	hash uint64
}

// matrix returns the memoized CSC form, building it on first use.
func (p *Problem) matrix() *matCache {
	if c := p.mat.Load(); c != nil {
		return c
	}
	c := &matCache{mat: buildCSC(p)}
	c.hash = c.mat.fingerprint()
	p.mat.Store(c)
	return c
}

type row struct {
	terms []Term
	rel   Relation
	rhs   float64
}

// NewProblem returns an empty maximization problem.
func NewProblem() *Problem { return &Problem{} }

// Clone returns a deep copy of the problem: bounds, objective and
// constraint rows share no memory with the original, so the copy can be
// solved (and have its bounds mutated) concurrently with the original. The
// MILP solver clones the root problem once per worker so each branch-and-
// bound worker owns a private simplex instance. Cost is O(variables +
// nonzeros), paid once per worker per Solve, not per node.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		names: append([]string(nil), p.names...),
		lo:    append([]float64(nil), p.lo...),
		hi:    append([]float64(nil), p.hi...),
		obj:   append([]float64(nil), p.obj...),
		rows:  make([]row, len(p.rows)),
	}
	for i, r := range p.rows {
		q.rows[i] = row{terms: append([]Term(nil), r.terms...), rel: r.rel, rhs: r.rhs}
	}
	q.mat.Store(p.mat.Load()) // the memoized matrix is immutable, share it
	return q
}

// AddVariable adds a variable with bounds [lo, hi] and returns its column
// index. lo must be finite; hi may be math.Inf(1). It panics on invalid
// bounds, which indicate a programming error in the model builder.
func (p *Problem) AddVariable(name string, lo, hi float64) int {
	if math.IsInf(lo, 0) || math.IsNaN(lo) || math.IsNaN(hi) {
		panic(fmt.Sprintf("lp: invalid lower bound for %q: [%v, %v]", name, lo, hi))
	}
	if hi < lo {
		panic(fmt.Sprintf("lp: empty bound interval for %q: [%v, %v]", name, lo, hi))
	}
	p.names = append(p.names, name)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.obj = append(p.obj, 0)
	p.mat.Store(nil)
	return len(p.names) - 1
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.names) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// VarName returns the name given to variable v.
func (p *Problem) VarName(v int) string { return p.names[v] }

// Bounds returns the bound interval of variable v.
func (p *Problem) Bounds(v int) (lo, hi float64) { return p.lo[v], p.hi[v] }

// SetBounds replaces the bound interval of variable v. It is used by the
// MILP solver to branch without rebuilding the problem.
func (p *Problem) SetBounds(v int, lo, hi float64) {
	if hi < lo {
		panic(fmt.Sprintf("lp: empty bound interval for %q: [%v, %v]", p.names[v], lo, hi))
	}
	p.lo[v] = lo
	p.hi[v] = hi
}

// SetObjective sets the objective coefficient of variable v (maximization).
func (p *Problem) SetObjective(v int, c float64) { p.obj[v] = c }

// Objective returns the objective coefficient of variable v.
func (p *Problem) Objective(v int) float64 { return p.obj[v] }

// AddConstraint appends the constraint Σ terms (rel) rhs and returns its row
// index. Terms referencing the same variable are summed.
func (p *Problem) AddConstraint(terms []Term, rel Relation, rhs float64) int {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.names) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.rows = append(p.rows, row{terms: cp, rel: rel, rhs: rhs})
	p.mat.Store(nil)
	return len(p.rows) - 1
}

// Constraint returns row i's terms, relation and right-hand side. The
// returned slice is the problem's own storage; callers must not modify it.
// It exists so layers above (e.g. the MILP solver's component decomposition)
// can inspect the constraint graph without rebuilding it.
func (p *Problem) Constraint(i int) (terms []Term, rel Relation, rhs float64) {
	r := p.rows[i]
	return r.terms, r.rel, r.rhs
}

// Basis is a simplex basis in the coordinates of the full problem it was
// extracted from: n structural columns followed by one logical (slack)
// column per constraint row. It records which column is basic in each row
// and the resting bound of every nonbasic column. A Basis is immutable once
// published by a solve, so it can be shared freely across goroutines;
// warm-starting a solve never mutates the Basis it was given.
type Basis struct {
	rowVar []int32 // column basic in row i (structural j, or logical n+i′)
	stat   []uint8 // varStatus per column, length n+m
	// inv, when inv.ptr is non-nil, caches the basis inverse the solve
	// ended with, compressed to its nonzeros (CSR, pointer-free), so a
	// warm-started solve of a bit-identical matrix (matHash) scatters it
	// instead of refactorizing; updates counts pivot updates since the last
	// true factorization, so drift control carries across solves. The
	// Basis owns all three and never changes them once published.
	inv     csr
	updates int
	matHash uint64
}

// csr is a compressed-sparse-row matrix: row i's entries are idx/val
// [ptr[i], ptr[i+1]).
type csr struct {
	ptr, idx []int32
	val      []float64
}

// Shape returns the (variables, constraints) dimensions the basis was
// extracted from, so callers can check compatibility before reuse.
func (b *Basis) Shape() (n, m int) {
	if b == nil {
		return 0, 0
	}
	return len(b.stat) - len(b.rowVar), len(b.rowVar)
}

// NewLogicalBasis returns the all-logical starting basis for an n-variable,
// m-row problem: every row's slack is basic and every structural variable
// rests at its lower bound. It is the deterministic cold-start basis.
func NewLogicalBasis(n, m int) *Basis {
	b := &Basis{rowVar: make([]int32, m), stat: make([]uint8, n+m)}
	for i := 0; i < m; i++ {
		b.rowVar[i] = int32(n + i)
		b.stat[n+i] = uint8(basic)
	}
	return b
}

// Project maps the basis into a subproblem whose variable k is original
// variable vars[k] and whose row r is original row rows[r]. A basic column
// that does not survive into the subproblem is replaced by the row's own
// logical, which phase 1 then repairs; projection is a performance hint, not
// a feasibility promise.
func (b *Basis) Project(vars, rows []int) *Basis {
	if b == nil {
		return nil
	}
	nOrig, _ := b.Shape()
	inv := make(map[int]int, len(vars))
	for k, v := range vars {
		inv[v] = k
	}
	n, m := len(vars), len(rows)
	out := &Basis{rowVar: make([]int32, m), stat: make([]uint8, n+m)}
	for k, v := range vars {
		out.stat[k] = b.stat[v]
	}
	for r, orig := range rows {
		out.stat[n+r] = b.stat[nOrig+orig]
		bv := int(b.rowVar[orig])
		switch {
		case bv < nOrig:
			if k, ok := inv[bv]; ok {
				out.rowVar[r] = int32(k)
				out.stat[k] = uint8(basic)
				continue
			}
		case bv == nOrig+orig:
			out.rowVar[r] = int32(n + r)
			out.stat[n+r] = uint8(basic)
			continue
		}
		out.rowVar[r] = int32(n + r)
		out.stat[n+r] = uint8(basic)
	}
	return out
}

// Absorb writes a subproblem basis back into b using the same index maps
// Project takes. It is the inverse plumbing used while assembling a full
// basis from independently solved blocks; callers must not Absorb into a
// basis that has already been published to a solve.
func (b *Basis) Absorb(sub *Basis, vars, rows []int) {
	if b == nil || sub == nil {
		return
	}
	nSub := len(vars)
	nOrig, _ := b.Shape()
	for k, v := range vars {
		b.stat[v] = sub.stat[k]
	}
	for r, orig := range rows {
		b.stat[nOrig+orig] = sub.stat[nSub+r]
		bv := int(sub.rowVar[r])
		if bv < nSub {
			b.rowVar[orig] = int32(vars[bv])
		} else {
			b.rowVar[orig] = int32(nOrig + rows[bv-nSub])
		}
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // value per variable, valid when Status == Optimal
	Iters     int
	// Refactors counts the basis factorizations of the revised simplex
	// solves that produced this solution; DenseFallback counts the blocks
	// that hit numerical trouble and were solved by the dense tableau
	// instead. Both, like Iters, are deterministic work counters.
	Refactors     int
	DenseFallback int
	// Basis is the optimal basis in full-problem coordinates, usable to
	// warm-start a later solve of a same-shaped problem. It is nil when the
	// solve fell back to the dense tableau (Options.Dense or numerical
	// trouble) or did not reach optimality.
	Basis *Basis
}

// Options tune the solver. The zero value selects defaults.
type Options struct {
	// MaxIters bounds total simplex pivots across both phases.
	// Default 50_000.
	MaxIters int
	// Tol is the numerical tolerance. Default 1e-9.
	Tol float64
	// WarmBasis, if non-nil, seeds the revised simplex with a starting basis
	// (typically the optimal basis of a previous, similar solve). The basis
	// must match the problem shape; a mismatched or singular warm basis is
	// ignored. Warm starts change only the pivot path, never the returned
	// solution: the revised solver canonicalizes its optimum so warm and
	// cold solves of the same problem are byte-identical.
	WarmBasis *Basis
	// Canonical asks the revised solver to canonicalize its optimum (see
	// canonical.go): the returned solution and basis then depend only on
	// the problem, not on WarmBasis or the pivot path. Costs a secondary
	// optimization and one extra refactorization, so callers enable it only
	// where solves seeded with different warm bases must agree bitwise —
	// e.g. the MILP root relaxation.
	Canonical bool
	// Dense forces the legacy dense two-phase tableau solver (no presolve,
	// no warm start, nil Solution.Basis). Used by tests as an independent
	// oracle for the revised path.
	Dense bool
}

func (o *Options) withDefaults() Options {
	out := Options{MaxIters: 50_000, Tol: 1e-9}
	if o != nil {
		if o.MaxIters > 0 {
			out.MaxIters = o.MaxIters
		}
		if o.Tol > 0 {
			out.Tol = o.Tol
		}
		out.WarmBasis = o.WarmBasis
		out.Canonical = o.Canonical
		out.Dense = o.Dense
	}
	return out
}

// ErrNoVariables is returned when solving a problem with no variables.
var ErrNoVariables = errors.New("lp: problem has no variables")

// Solve optimizes the problem and returns the solution. The problem itself
// is not modified. Status Infeasible and Unbounded are reported in the
// Solution, not as errors; the error return covers malformed inputs only.
//
// The default path presolves the problem and runs the sparse revised
// simplex per independent block (see presolve.go); Options.Dense selects
// the legacy dense tableau instead.
func Solve(p *Problem, opts *Options) (Solution, error) {
	o := opts.withDefaults()
	if len(p.names) == 0 {
		return Solution{}, ErrNoVariables
	}
	if o.Dense {
		t := newTableau(p, o)
		return t.solve(), nil
	}
	if w := o.WarmBasis; w != nil && !o.Canonical {
		if wn, wm := w.Shape(); wn == len(p.names) && wm == len(p.rows) {
			// Fast warm path: re-solving the full problem from a full-shape
			// basis (the branch-and-bound per-node case) skips presolve
			// entirely — the warm basis is a better starting point than any
			// reduction, and when it carries a cached inverse for this exact
			// matrix the solve starts without factorizing at all. Numerical
			// trouble falls through to the presolved path.
			if sol, ok := solveBlock(p, o, w); ok {
				return sol, nil
			}
		}
	}
	return solveReduced(p, o), nil
}
