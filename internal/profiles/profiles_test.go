package profiles

import (
	"math"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
)

func effnet(t *testing.T) models.Family {
	t.Helper()
	for _, f := range models.Zoo() {
		if f.Name == "efficientnet" {
			return f
		}
	}
	t.Fatal("efficientnet missing")
	return models.Family{}
}

func variant(t *testing.T, f models.Family, name string) models.Variant {
	t.Helper()
	v, ok := f.Variant(name)
	if !ok {
		t.Fatalf("variant %s missing", name)
	}
	return v
}

// TestFig1aCalibration pins the latency model to the paper's Figure 1a:
// batch-1 EfficientNet-B0 throughput of roughly 55 / 39 / 11 QPS on
// V100 / GTX 1080 Ti / CPU, and B7 around 10-16 QPS on V100.
func TestFig1aCalibration(t *testing.T) {
	f := effnet(t)
	b0 := variant(t, f, "b0")
	b7 := variant(t, f, "b7")
	qps := func(dt cluster.DeviceType, v models.Variant) float64 {
		return 1 / Latency(cluster.Spec(dt), v, 1).Seconds()
	}
	cases := []struct {
		dev      cluster.DeviceType
		v        models.Variant
		lo, hi   float64
		describe string
	}{
		{cluster.V100, b0, 45, 65, "V100 b0"},
		{cluster.GTX1080Ti, b0, 30, 48, "1080Ti b0"},
		{cluster.CPU, b0, 7, 16, "CPU b0"},
		{cluster.V100, b7, 8, 20, "V100 b7"},
	}
	for _, c := range cases {
		got := qps(c.dev, c.v)
		if got < c.lo || got > c.hi {
			t.Errorf("%s: %.1f QPS, want in [%v, %v]", c.describe, got, c.lo, c.hi)
		}
	}
}

func TestLatencyMonotoneInBatch(t *testing.T) {
	f := effnet(t)
	v := variant(t, f, "b3")
	for _, dt := range cluster.KnownTypes() {
		spec := cluster.Spec(dt)
		prev := time.Duration(0)
		for b := 1; b <= 32; b++ {
			l := Latency(spec, v, b)
			if l <= prev {
				t.Fatalf("%s: latency not monotone at batch %d", dt, b)
			}
			prev = l
		}
	}
}

func TestBatchingImprovesThroughputOnGPU(t *testing.T) {
	// throughput(batch 8) must exceed throughput(batch 1) substantially on
	// GPUs (the fixed overhead amortizes), and marginally on CPU.
	f := effnet(t)
	v := variant(t, f, "b0")
	tput := func(dt cluster.DeviceType, b int) float64 {
		return float64(b) / Latency(cluster.Spec(dt), v, b).Seconds()
	}
	if gain := tput(cluster.V100, 8) / tput(cluster.V100, 1); gain < 3 {
		t.Errorf("V100 batch gain %.2f, want > 3x", gain)
	}
	if gain := tput(cluster.CPU, 8) / tput(cluster.CPU, 1); gain > 1.25 {
		t.Errorf("CPU batch gain %.2f, want modest (< 1.25x)", gain)
	}
}

func TestLatencyPanicsOnZeroBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Latency(cluster.Spec(cluster.CPU), effnet(t).Variants[0], 0)
}

func TestMemoryFits(t *testing.T) {
	zoo := models.MustRegistry(models.Zoo())
	t511b, _ := zoo.Variant("t5/11b")
	if Fits(cluster.Spec(cluster.V100), t511b, 1) {
		t.Fatal("t5/11b must not fit a 16GB V100")
	}
	if !Fits(cluster.Spec(cluster.CPU), t511b, 1) {
		t.Fatal("t5/11b must fit the 64GB CPU host")
	}
	if MaxMemoryBatch(cluster.Spec(cluster.V100), t511b) != 0 {
		t.Fatal("MaxMemoryBatch must be 0 when weights do not fit")
	}
	b0, _ := zoo.Variant("efficientnet/b0")
	if MaxMemoryBatch(cluster.Spec(cluster.V100), b0) < 100 {
		t.Fatal("b0 should allow large memory batches on V100")
	}
}

func TestFamilySLO(t *testing.T) {
	f := effnet(t)
	slo := FamilySLO(f, 2)
	// The fastest EfficientNet on CPU is b0; SLO must be exactly twice its
	// batch-1 CPU latency.
	want := 2 * Latency(cluster.Spec(cluster.CPU), variant(t, f, "b0"), 1)
	if slo != want {
		t.Fatalf("SLO %v, want %v", slo, want)
	}
	if FamilySLO(f, 3) <= slo {
		t.Fatal("larger multiplier must give larger SLO")
	}
}

func TestMaxSLOBatch(t *testing.T) {
	reg := models.MustRegistry(models.Zoo())
	for _, c := range []struct {
		variant string
		device  cluster.DeviceType
		mult    float64
	}{
		{"efficientnet/b0", cluster.V100, 2},
		// A slow per-item variant whose budget ends just short of a whole
		// batch.
		{"bert/bert-small", cluster.GTX1080Ti, 1.9},
	} {
		v, ok := reg.Variant(c.variant)
		if !ok {
			t.Fatalf("%s not in the zoo", c.variant)
		}
		fam, _ := reg.Family(v.Family)
		slo := FamilySLO(fam, c.mult)
		spec := cluster.Spec(c.device)
		b := MaxSLOBatch(spec, v, slo)
		if b < 1 {
			t.Fatalf("%s must be SLO-feasible on %s, got max batch %d", c.variant, c.device, b)
		}
		// Defining property: latency at b is within slo/2, at b+1 it is not.
		if Latency(spec, v, b) > slo/2 {
			t.Fatalf("%s on %s: latency at max batch %d is %v, exceeds slo/2 %v", c.variant, c.device, b, Latency(spec, v, b), slo/2)
		}
		if Latency(spec, v, b+1) <= slo/2 {
			t.Fatalf("%s on %s: max batch %d not maximal", c.variant, c.device, b)
		}
	}
}

func TestHeterogeneousSLOFeasibility(t *testing.T) {
	// With SLO = 2x fastest CPU latency, the largest EfficientNets must be
	// feasible only on the fastest accelerator — this heterogeneity is what
	// makes model placement matter (§2.2 Factor 2).
	f := effnet(t)
	slo := FamilySLO(f, 2)
	b7 := variant(t, f, "b7")
	if MaxBatch(cluster.Spec(cluster.V100), b7, slo) < 1 {
		t.Error("b7 should be feasible on V100")
	}
	if MaxBatch(cluster.Spec(cluster.GTX1080Ti), b7, slo) != 0 {
		t.Error("b7 should NOT be feasible on 1080Ti at 2x SLO")
	}
	if MaxBatch(cluster.Spec(cluster.CPU), b7, slo) != 0 {
		t.Error("b7 should NOT be feasible on CPU")
	}
	b0 := variant(t, f, "b0")
	if MaxBatch(cluster.Spec(cluster.CPU), b0, slo) < 1 {
		t.Error("b0 must be feasible on CPU (it defines the SLO)")
	}
}

func TestPeakThroughputOrdering(t *testing.T) {
	// For a variant feasible everywhere, peak throughput must follow device
	// speed: V100 > 1080Ti > CPU.
	f := effnet(t)
	b0 := variant(t, f, "b0")
	slo := FamilySLO(f, 2)
	pV := PeakThroughput(cluster.Spec(cluster.V100), b0, slo)
	pG := PeakThroughput(cluster.Spec(cluster.GTX1080Ti), b0, slo)
	pC := PeakThroughput(cluster.Spec(cluster.CPU), b0, slo)
	if !(pV > pG && pG > pC && pC > 0) {
		t.Fatalf("peak throughput ordering broken: V100 %.1f, 1080Ti %.1f, CPU %.1f", pV, pG, pC)
	}
}

func TestPeakThroughputZeroWhenInfeasible(t *testing.T) {
	f := effnet(t)
	slo := FamilySLO(f, 2)
	if p := PeakThroughput(cluster.Spec(cluster.CPU), variant(t, f, "b7"), slo); p != 0 {
		t.Fatalf("infeasible pair must have 0 capacity, got %v", p)
	}
}

func TestAccuracyThroughputTradeoffExists(t *testing.T) {
	// §2.1: on a fixed device, less accurate variants must provide higher
	// peak throughput. Check the extremes of every family.
	slo := func(f models.Family) time.Duration { return FamilySLO(f, 2) }
	spec := cluster.Spec(cluster.V100)
	for _, f := range models.Zoo() {
		s := slo(f)
		low := PeakThroughput(spec, f.LeastAccurate(), s)
		high := PeakThroughput(spec, f.MostAccurate(), s)
		if low == 0 {
			t.Errorf("family %s: least accurate variant infeasible on V100", f.Name)
			continue
		}
		if high > low {
			t.Errorf("family %s: most accurate variant faster than least accurate (%.1f > %.1f)",
				f.Name, high, low)
		}
	}
}

func TestScaledCostSubLinear(t *testing.T) {
	// Doubling GFLOPs must less than double the cost (accelerator
	// utilization improves with model size).
	small := models.Variant{GFLOPs: 10}
	big := models.Variant{GFLOPs: 20}
	ratio := ScaledCost(big) / ScaledCost(small)
	if ratio >= 2 || ratio <= 1 {
		t.Fatalf("cost ratio %v, want in (1, 2)", ratio)
	}
	if math.Abs(ratio-math.Pow(2, costExponent)) > 1e-9 {
		t.Fatalf("ratio %v inconsistent with exponent", ratio)
	}
}
