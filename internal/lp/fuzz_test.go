package lp

import (
	"math"
	"testing"
)

// decodeLP turns fuzz bytes into a small bounded LP: 1–8 variables with
// finite lower bounds in [-4, 4] and an upper bound up to 6 above (or
// none), integer objective coefficients in [-3, 3], and 0–6 LE/GE/EQ rows
// with integer coefficients in [-4, 4] and right-hand sides in [-10, 10].
// Missing bytes read as zero, so every input decodes.
func decodeLP(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%8
	m := next() % 7
	p := NewProblem()
	for j := 0; j < n; j++ {
		lo := float64(next()%9 - 4)
		hi := math.Inf(1)
		if b := next(); b%4 != 0 {
			hi = lo + float64(b%7)
		}
		p.AddVariable("x", lo, hi)
		p.SetObjective(j, float64(next()%7-3))
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if c := next()%9 - 4; c != 0 {
				terms = append(terms, Term{Var: j, Coef: float64(c)})
			}
		}
		p.AddConstraint(terms, Relation(next()%3), float64(next()%21-10))
	}
	return p
}

// FuzzRevisedMatchesDense cross-checks the default solve path (presolve +
// sparse revised simplex) against the dense tableau oracle on decoded LPs:
// same status, and the same objective within tolerance when optimal. It
// then checks the cached-inverse warm start: a canonical revised solve
// warm-started from the Basis a cold canonical solve published — which
// scatters that Basis's compressed inverse instead of factorizing — must
// return the cold solve byte for byte.
func FuzzRevisedMatchesDense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 4, 1, 6, 4, 2, 5, 5, 3, 0, 8, 1, 4, 6, 0, 12})
	f.Add([]byte{7, 6, 0, 0, 6, 8, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		sparse, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("sparse: %v", err)
		}
		dense, err := Solve(p, &Options{Dense: true})
		if err != nil {
			t.Fatalf("dense: %v", err)
		}
		if sparse.Status != dense.Status {
			t.Fatalf("status sparse=%v dense=%v", sparse.Status, dense.Status)
		}
		if sparse.Status == Optimal && !approx(sparse.Objective, dense.Objective, 1e-6*(1+math.Abs(dense.Objective))) {
			t.Fatalf("objective sparse=%v dense=%v", sparse.Objective, dense.Objective)
		}

		o := (&Options{Canonical: true}).withDefaults()
		cold, ok := solveBlock(p, o, nil)
		if !ok || cold.Status != Optimal {
			return // no basis to warm-start from
		}
		warm, ok := solveBlock(p, o, cold.Basis)
		if !ok {
			t.Fatalf("warm start from the cached inverse hit numerical trouble")
		}
		if !sameBlockSolution(cold, warm) {
			t.Fatalf("warm start from the cached inverse differs from the cold solve:\ncold %+v\nwarm %+v", cold, warm)
		}
	})
}
