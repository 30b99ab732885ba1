package meter

import (
	"fmt"
	"time"
)

// Domain describes one energy-counting domain (e.g. one RAPL package).
// MaxRangeMicroJ is the counter's wrap modulus in microjoules; 0 means the
// counter never wraps.
type Domain struct {
	Name           string `json:"name"`
	MaxRangeMicroJ uint64 `json:"max_range_uj"`
}

// Reading is a snapshot of every domain's cumulative energy counter.
// Counters[i] corresponds to Domains()[i] of the meter that produced it.
type Reading struct {
	At       time.Time
	Counters []uint64 // cumulative microjoules per domain
}

// EnergyMeter reads cumulative energy counters. Implementations must return
// domains in a stable order so two Readings can be subtracted element-wise.
type EnergyMeter interface {
	// Name identifies the backend ("rapl", "mock").
	Name() string
	// Domains lists the counting domains in the order Read reports them.
	Domains() []Domain
	// Read snapshots all domain counters.
	Read() (Reading, error)
}

// deltaMicroJ returns the per-domain microjoule deltas between two readings,
// unwrapping counters that rolled over at most once between the snapshots.
// It is the shared core of DeltaPerDomain and the Sampler's per-tick points.
func deltaMicroJ(name string, doms []Domain, start, end Reading) ([]uint64, error) {
	if len(start.Counters) != len(doms) || len(end.Counters) != len(doms) {
		return nil, fmt.Errorf("meter %s: reading has %d/%d counters, want %d",
			name, len(start.Counters), len(end.Counters), len(doms))
	}
	deltas := make([]uint64, len(doms))
	for i, d := range doms {
		s, e := start.Counters[i], end.Counters[i]
		switch {
		case e >= s:
			deltas[i] = e - s
		case d.MaxRangeMicroJ > 0:
			// Counter wrapped: it counted from s up to the max range, then
			// from zero up to e.
			deltas[i] = (d.MaxRangeMicroJ - s) + e
		default:
			return nil, fmt.Errorf("meter %s: domain %s counter went backwards (%d -> %d) with no wrap range",
				name, d.Name, s, e)
		}
	}
	return deltas, nil
}

// DeltaPerDomain returns the energy in joules consumed between two readings
// of the same meter, one value per domain in Domains() order, unwrapping
// counters that rolled over at most once between the snapshots.
func DeltaPerDomain(m EnergyMeter, start, end Reading) ([]float64, error) {
	deltas, err := deltaMicroJ(m.Name(), m.Domains(), start, end)
	if err != nil {
		return nil, err
	}
	joules := make([]float64, len(deltas))
	for i, d := range deltas {
		joules[i] = float64(d) / 1e6
	}
	return joules, nil
}
