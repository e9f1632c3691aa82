// Package burst implements the workload-burstiness machinery the paper
// adopts from Mi et al., "Injecting realistic burstiness to a traditional
// client-server benchmark" (ICAC'09), cited as [23]: the index of
// dispersion for counts as the burstiness measure, and a two-state
// Markov-modulated Poisson process (MMPP-2) that realizes a target index
// at a target mean rate.
//
// The paper's SysSteady runs at RUBBoS burst index 1 (no modulation) and
// SysBursty at index 100 — the "Slashdot effect" traffic whose bursts
// create the consolidation millibottlenecks of Section IV-A.
package burst

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// MMPP2 is a two-state Markov-modulated Poisson process: arrivals are
// Poisson at RateHot while in the hot state and RateCold in the cold
// state; the state holds for an exponential time with the given means.
type MMPP2 struct {
	// RateHot and RateCold are the per-state arrival rates in req/s.
	RateHot, RateCold float64
	// HoldHot and HoldCold are the mean state-holding times.
	HoldHot, HoldCold time.Duration
}

// Validate checks the parameters describe a proper process.
func (m MMPP2) Validate() error {
	if m.RateHot < 0 || m.RateCold < 0 {
		return errors.New("mmpp: negative rate")
	}
	if m.HoldHot <= 0 || m.HoldCold <= 0 {
		return errors.New("mmpp: non-positive holding time")
	}
	return nil
}

// StationaryHotFraction is the long-run fraction of time spent hot.
func (m MMPP2) StationaryHotFraction() float64 {
	h, c := m.HoldHot.Seconds(), m.HoldCold.Seconds()
	return h / (h + c)
}

// MeanRate is the long-run arrival rate.
func (m MMPP2) MeanRate() float64 {
	p := m.StationaryHotFraction()
	return p*m.RateHot + (1-p)*m.RateCold
}

// IndexAtInfinity is the asymptotic index of dispersion for counts:
//
//	I(∞) = 1 + 2·π_h·π_c·(λ_h − λ_c)² / (λ̄·(σ_h + σ_c))
//
// where σ are the state-switching rates (1/holding time).
func (m MMPP2) IndexAtInfinity() float64 {
	p := m.StationaryHotFraction()
	lbar := m.MeanRate()
	if lbar == 0 {
		return 1
	}
	sh := 1 / m.HoldHot.Seconds()
	sc := 1 / m.HoldCold.Seconds()
	d := m.RateHot - m.RateCold
	return 1 + 2*p*(1-p)*d*d/(lbar*(sh+sc))
}

// Fit solves for an MMPP2 with the given long-run mean rate (req/s),
// asymptotic index of dispersion, hot-state stationary fraction
// (0 < hotFraction < 1) and switching time scale (the mean of the two
// holding times). Index 1 degenerates to a plain Poisson process.
func Fit(meanRate, index, hotFraction float64, timescale time.Duration) (MMPP2, error) {
	if meanRate <= 0 {
		return MMPP2{}, errors.New("mmpp fit: mean rate must be positive")
	}
	if index < 1 {
		return MMPP2{}, errors.New("mmpp fit: index must be >= 1")
	}
	if hotFraction <= 0 || hotFraction >= 1 {
		return MMPP2{}, errors.New("mmpp fit: hot fraction must be in (0,1)")
	}
	if timescale <= 0 {
		return MMPP2{}, errors.New("mmpp fit: timescale must be positive")
	}

	p := hotFraction
	holdHot := time.Duration(2 * p * float64(timescale))
	holdCold := time.Duration(2 * (1 - p) * float64(timescale))
	if index == 1 {
		return MMPP2{
			RateHot: meanRate, RateCold: meanRate,
			HoldHot: holdHot, HoldCold: holdCold,
		}, nil
	}

	sh := 1 / holdHot.Seconds()
	sc := 1 / holdCold.Seconds()
	// Invert IndexAtInfinity for Δ = λ_h − λ_c.
	delta := math.Sqrt((index - 1) * meanRate * (sh + sc) / (2 * p * (1 - p)))
	rateCold := meanRate - p*delta
	if rateCold < 0 {
		return MMPP2{}, fmt.Errorf(
			"mmpp fit: index %.0f unreachable at hot fraction %.2f and timescale %v (cold rate would be negative; increase the timescale or hot fraction)",
			index, hotFraction, timescale)
	}
	return MMPP2{
		RateHot:  meanRate + (1-p)*delta,
		RateCold: rateCold,
		HoldHot:  holdHot,
		HoldCold: holdCold,
	}, nil
}
