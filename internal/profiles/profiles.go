// Package profiles implements the model profiler of Proteus's controller
// (§3): it derives per-(device type, model variant, batch size) inference
// latencies, memory footprints, SLO-feasible maximum batch sizes and peak
// throughput capacities P_{d,m,q} (§4). The paper keeps profiled values in
// an O(1) key-value store; here every lookup evaluates the analytical model
// below on the device's own spec, which is just as cheap.
//
// # Latency model
//
// The paper profiles real models with ONNX Runtime; this reproduction uses
// a calibrated analytical model instead (see DESIGN.md for the substitution
// argument):
//
//	latency_ms(d, m, b) = Fixed(d) + b · GFLOPs(m)^0.7 / Eff(d)
//
// The sub-linear exponent reflects that large models utilize accelerators
// better than small ones; the per-device Fixed and Eff constants are chosen
// so that batch-1 EfficientNet throughput on V100 / GTX 1080 Ti / CPU
// reproduces Figure 1a (≈55 / 39 / 11 QPS for B0 down to ≈16 / — / — QPS
// for B7, with the largest variants SLO-infeasible on slower devices).
package profiles

import (
	"math"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
)

// costExponent is the sub-linearity of compute time in model GFLOPs.
const costExponent = 0.7

// ScaledCost returns the effective per-item compute cost of a variant.
func ScaledCost(v models.Variant) float64 {
	return math.Pow(v.GFLOPs, costExponent)
}

// Latency returns the batch inference latency of variant v on a device of
// the given spec. Batch must be >= 1.
func Latency(spec cluster.TypeSpec, v models.Variant, batch int) time.Duration {
	if batch < 1 {
		panic("profiles: batch must be >= 1")
	}
	ms := spec.FixedOverheadMS + float64(batch)*ScaledCost(v)/spec.EffGFLOPsPerMS
	return time.Duration(ms * float64(time.Millisecond))
}

// MemoryMB returns the memory needed to host v and run batches of the given
// size.
func MemoryMB(v models.Variant, batch int) float64 {
	return v.WeightsMB() + float64(batch)*v.ActivationMBPerItem()
}

// Fits reports whether v with the given batch size fits in device memory.
func Fits(spec cluster.TypeSpec, v models.Variant, batch int) bool {
	return MemoryMB(v, batch) <= spec.MemoryMB
}

// MaxMemoryBatch returns the largest batch size that fits in device memory
// (0 if even the weights do not fit).
func MaxMemoryBatch(spec cluster.TypeSpec, v models.Variant) int {
	if v.WeightsMB() > spec.MemoryMB {
		return 0
	}
	b := int((spec.MemoryMB - v.WeightsMB()) / v.ActivationMBPerItem())
	return b
}

// MaxSLOBatch returns the largest batch size whose inference latency stays
// within slo/2 — the Nexus observation used by the paper (§4): in the worst
// case a query waits for a full batch before executing, so processing must
// take at most half the SLO. Returns 0 if even batch 1 is too slow.
func MaxSLOBatch(spec cluster.TypeSpec, v models.Variant, slo time.Duration) int {
	budgetMS := float64(slo) / float64(time.Millisecond) / 2
	perItem := ScaledCost(v) / spec.EffGFLOPsPerMS
	// A 1ns slack keeps boundary cases (batch-1 latency exactly equal to
	// slo/2, as for the SLO-defining variant itself) feasible despite
	// floating-point truncation. Slack in batch units would grow with the
	// per-item latency and admit batches that overrun slo/2.
	b := int((budgetMS - spec.FixedOverheadMS + 1e-6) / perItem)
	if b < 0 {
		return 0
	}
	return b
}

// MaxBatch returns the maximum allowed batch size for (device, variant,
// SLO): the minimum of the SLO-feasible and memory-feasible batch sizes,
// per §4.
func MaxBatch(spec cluster.TypeSpec, v models.Variant, slo time.Duration) int {
	b := MaxSLOBatch(spec, v, slo)
	if mb := MaxMemoryBatch(spec, v); mb < b {
		b = mb
	}
	return b
}

// PeakThroughput returns P_{d,m,q}: the QPS capacity of variant v on the
// device at its maximum allowed batch size, i.e. maxBatch / latency(maxBatch).
// It returns 0 when the variant cannot serve the SLO on this device at all.
func PeakThroughput(spec cluster.TypeSpec, v models.Variant, slo time.Duration) float64 {
	b := MaxBatch(spec, v, slo)
	if b <= 0 {
		return 0
	}
	lat := Latency(spec, v, b).Seconds()
	return float64(b) / lat
}

// EffectiveCapacity is the serving rate a device can actually sustain
// without blowing its SLO through queueing delay: PeakThroughput derated by
// a batch-size-dependent utilization factor b/(b+2). A device running
// batches of b has one batch-time of latency budget left for queueing
// (processing takes the other half of the SLO, per the Nexus rule); keeping
// utilization below b/(b+2) bounds the chance that a Poisson arrival burst
// spills a query past that budget. Large-batch devices tolerate high
// utilization (b=30 → 94%), single-batch CPUs need large slack (b=1 → 33%).
// The resource manager plans against this capacity, which plays the role of
// conservatively profiled peak throughput in the paper's deployment.
func EffectiveCapacity(spec cluster.TypeSpec, v models.Variant, slo time.Duration) float64 {
	b := MaxBatch(spec, v, slo)
	if b <= 0 {
		return 0
	}
	util := float64(b) / float64(b+2)
	// Even large-batch devices keep a 15% margin: after a capacity dip
	// (model load) or an estimation lag on a demand ramp, the margin is the
	// drain rate for the accumulated backlog; at 5% margin a 2-second dip
	// takes ~40 seconds of SLO violations to recover.
	if util > 0.85 {
		util = 0.85
	}
	return PeakThroughput(spec, v, slo) * util
}

// FamilySLO returns the latency SLO for a model family per §6.1.2: the
// batch-1 latency of the family's fastest variant on a CPU, times the
// multiplier (2 in the main experiments, swept 1–3.5 in §6.6).
func FamilySLO(f models.Family, multiplier float64) time.Duration {
	cpu := cluster.Spec(cluster.CPU)
	fastest := time.Duration(math.MaxInt64)
	for _, v := range f.Variants {
		if l := Latency(cpu, v, 1); l < fastest {
			fastest = l
		}
	}
	return time.Duration(float64(fastest) * multiplier)
}
