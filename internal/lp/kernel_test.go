package lp

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// sameBlockSolution reports whether two solveBlock results are
// byte-identical: status, objective and X by bit pattern, and the published
// basis including its cached inverse.
func sameBlockSolution(a, b Solution) bool {
	if a.Status != b.Status || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return false
	}
	if !slices.EqualFunc(a.X, b.X, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		return false
	}
	if (a.Basis == nil) != (b.Basis == nil) {
		return false
	}
	if a.Basis == nil {
		return true
	}
	return slices.Equal(a.Basis.rowVar, b.Basis.rowVar) && slices.Equal(a.Basis.stat, b.Basis.stat) &&
		sameCSR(a.Basis.inv, b.Basis.inv) && a.Basis.updates == b.Basis.updates
}

func sameCSR(a, b csr) bool {
	return slices.Equal(a.ptr, b.ptr) && slices.Equal(a.idx, b.idx) &&
		slices.EqualFunc(a.val, b.val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func cloneCSR(c csr) csr {
	return csr{ptr: slices.Clone(c.ptr), idx: slices.Clone(c.idx), val: slices.Clone(c.val)}
}

// TestPublishedInverseSurvivesPoolReuse checks that a published Basis owns
// its cached inverse: after other same-sized solves have reused the pooled
// scratch, the inverse is unchanged byte for byte, and a warm start from
// it (which scatters that inverse instead of factorizing) still returns
// exactly the cold solve.
func TestPublishedInverseSurvivesPoolReuse(t *testing.T) {
	o := (&Options{Canonical: true}).withDefaults()
	sh := lpShapes[0]
	p := buildSeededLP(3, sh)
	cold, ok := solveBlock(p, o, nil)
	if !ok || cold.Status != Optimal {
		t.Fatalf("cold solve: ok=%v status=%v", ok, cold.Status)
	}
	if cold.Basis == nil || cold.Basis.inv.ptr == nil {
		t.Fatalf("optimal solve published no cached inverse")
	}
	snap := cloneCSR(cold.Basis.inv)
	reused := 0
	for seed := uint64(100); seed < 140; seed++ {
		q := buildSeededLP(seed, sh)
		if q.NumConstraints() != p.NumConstraints() {
			continue
		}
		solveBlock(q, o, nil)
		solveBlock(q, (&Options{}).withDefaults(), cold.Basis)
		reused++
	}
	if reused < 3 {
		t.Fatalf("only %d same-sized problems generated", reused)
	}
	if !sameCSR(snap, cold.Basis.inv) {
		t.Fatalf("published inverse changed after pooled scratch reuse")
	}
	warm, ok := solveBlock(p, o, cold.Basis)
	if !ok {
		t.Fatalf("warm solve hit numerical trouble")
	}
	if !sameBlockSolution(cold, warm) {
		t.Fatalf("warm start from the cached inverse differs from the cold solve")
	}
}

// TestCountersReported checks the kernel counters on a plain solve and on
// the dense oracle: a revised solve factorizes at least once, falls back
// never, and the tableau reports neither.
func TestCountersReported(t *testing.T) {
	p := buildSeededLP(7, lpShapes[0])
	sol, err := Solve(p, nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	if sol.Refactors < 1 || sol.DenseFallback != 0 || sol.Iters < 1 {
		t.Fatalf("iters/refactors/fallbacks = %d/%d/%d", sol.Iters, sol.Refactors, sol.DenseFallback)
	}
	dense, _ := Solve(p, &Options{Dense: true})
	if dense.Refactors != 0 || dense.DenseFallback != 0 {
		t.Fatalf("dense oracle reported refactors/fallbacks %d/%d", dense.Refactors, dense.DenseFallback)
	}
}

// TestConcurrentSolvesShareScratch solves the seeded shapes from several
// goroutines at once, each on its own clone, cold and warm-started through
// the cached inverse, so the solves take and return pooled scratch
// concurrently. Every result must match the serial one byte for byte.
func TestConcurrentSolvesShareScratch(t *testing.T) {
	var probs []*Problem
	var want, wantWarm []Solution
	for _, sh := range lpShapes {
		for _, seed := range []uint64{1, 42, 1234} {
			p := buildSeededLP(seed, sh)
			sol, err := Solve(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			warm, _ := Solve(p, &Options{WarmBasis: sol.Basis})
			probs = append(probs, p)
			want = append(want, sol)
			wantWarm = append(wantWarm, warm)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		clones := make([]*Problem, len(probs))
		for i, p := range probs {
			clones[i] = p.Clone()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, p := range clones {
					sol, _ := Solve(p, nil)
					warm, _ := Solve(p, &Options{WarmBasis: want[i].Basis})
					if !sameBlockSolution(sol, want[i]) || !sameBlockSolution(warm, wantWarm[i]) {
						t.Errorf("problem %d: concurrent solve differs from the serial one", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
