// Connected-component decomposition for the branch-and-bound solver.
//
// When routing decouples the allocation MILP — no constraint row links
// variables of different model families — the problem's constraint graph
// falls apart into independent components, and branch and bound on the
// whole problem wastes its tree on a cross product of subproblems. Solve
// detects this case up front (union-find over the rows, O(variables +
// nonzeros)) and solves each component as its own MILP in canonical order
// (components sorted by their smallest variable index), merging the
// solutions. Every sub-solve is itself deterministic and canonicalizes its
// root relaxation, so the merged Solution retains the package's guarantee:
// byte-identical across Parallelism levels and warm/cold starts.
package milp

import (
	"math"
	"sync"
	"time"

	"proteus/internal/lp"
)

// component is one independent block of the constraint graph: variable and
// row index lists in ascending order, in full-problem coordinates.
type component struct {
	vars []int
	rows []int
}

// components partitions the variables into connected components of the
// constraint graph. Rows with no terms are attached to the first component
// (the LP presolve checks their consistency). Variables appearing in no row
// each form their own singleton component.
func (p *Problem) components() []component {
	n := p.lp.NumVariables()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Union by minimum index, so a component's root is its smallest variable.
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra < rb {
			parent[rb] = ra
		} else if rb < ra {
			parent[ra] = rb
		}
	}
	m := p.lp.NumConstraints()
	for i := 0; i < m; i++ {
		terms, _, _ := p.lp.Constraint(i)
		for k := 1; k < len(terms); k++ {
			union(terms[0].Var, terms[k].Var)
		}
	}
	compOf := make([]int, n)
	for i := range compOf {
		compOf[i] = -1
	}
	var comps []component
	for v := 0; v < n; v++ {
		r := find(v)
		if compOf[r] < 0 {
			compOf[r] = len(comps)
			comps = append(comps, component{})
		}
		c := compOf[r]
		comps[c].vars = append(comps[c].vars, v)
	}
	for i := 0; i < m; i++ {
		terms, _, _ := p.lp.Constraint(i)
		c := 0
		if len(terms) > 0 {
			c = compOf[find(terms[0].Var)]
		}
		comps[c].rows = append(comps[c].rows, i)
	}
	return comps
}

// subProblem extracts one component as a standalone MILP in local
// coordinates (variable k of the sub is c.vars[k], row r is c.rows[r]).
func (p *Problem) subProblem(c component) *Problem {
	sub := NewProblem()
	local := make([]int, p.lp.NumVariables())
	for k, v := range c.vars {
		local[v] = k
		lo, hi := p.lp.Bounds(v)
		if p.integral[v] {
			sub.AddInteger(p.lp.VarName(v), lo, hi)
		} else {
			sub.AddVariable(p.lp.VarName(v), lo, hi)
		}
		sub.SetObjective(k, p.lp.Objective(v))
	}
	for _, i := range c.rows {
		terms, rel, rhs := p.lp.Constraint(i)
		lt := make([]lp.Term, len(terms))
		for k, t := range terms {
			lt[k] = lp.Term{Var: local[t.Var], Coef: t.Coef}
		}
		sub.AddConstraint(lt, rel, rhs)
	}
	return sub
}

// subOptions narrows the full-problem options to one component: the warm
// incumbent and warm basis are sliced/projected into local coordinates and
// the time limit is the remaining share of the shared deadline.
func subOptions(o Options, c component, remaining time.Duration) *Options {
	so := o
	so.TimeLimit = remaining
	if len(o.WarmStart) > 0 {
		ws := make([]float64, len(c.vars))
		for k, v := range c.vars {
			ws[k] = o.WarmStart[v]
		}
		so.WarmStart = ws
	}
	so.WarmBasis = o.WarmBasis.Project(c.vars, c.rows)
	return &so
}

// solveDecomposed solves each component as its own MILP — sequentially at
// Parallelism 1, across a worker pool otherwise (components are fully
// independent, so running them concurrently cannot change any result) — and
// merges the results in component order: objectives and bounds sum, X and
// the optimal basis reassemble in full coordinates, node counts add,
// statuses combine by precedence (Infeasible and Unbounded end the merge
// immediately; Limit without an incumbent wins over Feasible, which wins
// over Optimal). The merge walks components in canonical order and stops at
// the first terminal status exactly like a sequential solve would, so the
// Solution is byte-identical at every parallelism level even when extra
// workers solved components the sequential order never reaches.
func solveDecomposed(p *Problem, o Options, comps []component) Solution {
	start := wallNow()
	var deadline time.Time
	if o.TimeLimit > 0 {
		deadline = start.Add(o.TimeLimit)
	}
	results := make([]Solution, len(comps))
	solveOne := func(i int, innerPar int) bool {
		remaining := time.Duration(0)
		if o.TimeLimit > 0 {
			remaining = deadline.Sub(wallNow())
			if remaining <= 0 {
				results[i] = Solution{Status: Limit, TimeLimited: true, Bound: math.Inf(1)}
				return false
			}
		}
		so := subOptions(o, comps[i], remaining)
		so.Parallelism = innerPar
		results[i] = Solve(p.subProblem(comps[i]), so)
		return results[i].Status == Optimal || results[i].Status == Feasible
	}
	if o.Parallelism > 1 && len(comps) > 1 {
		workers := o.Parallelism
		if workers > len(comps) {
			workers = len(comps)
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					solveOne(i, 1)
				}
			}()
		}
		for i := range comps {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i := range comps {
			if !solveOne(i, o.Parallelism) {
				break // terminal status: the merge below stops here anyway
			}
		}
	}

	n := p.lp.NumVariables()
	out := Solution{Status: Optimal, X: make([]float64, n)}
	basis := lp.NewLogicalBasis(n, p.lp.NumConstraints())
	haveBasis := true
	for i, c := range comps {
		res := results[i]
		out.Nodes += res.Nodes
		out.LPIters += res.LPIters
		out.Refactors += res.Refactors
		out.DenseFallbacks += res.DenseFallbacks
		out.TimeLimited = out.TimeLimited || res.TimeLimited
		switch res.Status {
		case Infeasible, Unbounded:
			out.Status = res.Status
			out.X = nil
			out.Bound = math.Inf(-1)
			if res.Status == Unbounded {
				out.Bound = math.Inf(1)
			}
			out.Objective = 0
			out.Elapsed = sinceStart(start)
			return out
		case Limit:
			out.Status = Limit
			out.X = nil
			out.Bound = math.Inf(1)
			out.Elapsed = sinceStart(start)
			return out
		case Feasible:
			out.Status = Feasible
		}
		out.Objective += res.Objective
		out.Bound += res.Bound
		for k, v := range c.vars {
			out.X[v] = res.X[k]
		}
		if res.Basis != nil {
			basis.Absorb(res.Basis, c.vars, c.rows)
		} else {
			haveBasis = false
		}
	}
	if haveBasis {
		out.Basis = basis
	}
	out.Elapsed = sinceStart(start)
	return out
}
