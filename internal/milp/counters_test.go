package milp

import "testing"

// TestKernelCountersPinned pins the search and the simplex pivot path on
// three benchmark shapes: Nodes and LPIters were recorded with the dense
// basis-inverse kernel this package's LP engine used before its passes
// over B⁻¹ skipped exact zeros, so a kernel change that alters any pivot
// (or any branch-and-bound decision) fails here. It also checks that the
// consumed-relaxation sums agree at Parallelism 1, 2 and 4: speculative
// solves the search never uses must not count.
func TestKernelCountersPinned(t *testing.T) {
	cases := []struct {
		name           string
		build          func() *Problem
		nodes, lpIters int
	}{
		{"d4q14", func() *Problem { return buildAllocInstance(42, 4, 14) }, 60, 340},
		{"d200q30", func() *Problem { return buildFleetInstance(42, 200, 30, 5) }, 2551, 12178},
		{"d12q16", func() *Problem { return buildAllocInstance(42, 12, 16) }, 2182, 8349},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.build()
			base := Solve(p, &Options{MaxNodes: 20_000, Parallelism: 1})
			if base.Status != Optimal {
				t.Fatalf("status %v, want optimal", base.Status)
			}
			if base.Nodes != c.nodes || base.LPIters != c.lpIters {
				t.Fatalf("nodes/LP pivots = %d/%d, want %d/%d", base.Nodes, base.LPIters, c.nodes, c.lpIters)
			}
			if base.Refactors == 0 {
				t.Fatalf("no basis factorizations counted")
			}
			for _, par := range []int{2, 4} {
				sol := Solve(p, &Options{MaxNodes: 20_000, Parallelism: par})
				if sol.Nodes != base.Nodes || sol.LPIters != base.LPIters ||
					sol.Refactors != base.Refactors || sol.DenseFallbacks != base.DenseFallbacks {
					t.Fatalf("par %d: nodes/pivots/refactors/fallbacks = %d/%d/%d/%d, par 1 %d/%d/%d/%d",
						par, sol.Nodes, sol.LPIters, sol.Refactors, sol.DenseFallbacks,
						base.Nodes, base.LPIters, base.Refactors, base.DenseFallbacks)
				}
			}
		})
	}
}
