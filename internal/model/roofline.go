package model

import (
	"fmt"
	"sort"

	"energybench/internal/bench"
	"energybench/internal/harness"
)

// lineBytes is the cache-line granularity of chase-kernel traffic: every
// pointer-chase iteration touches one line, and every LLC miss moves one.
const lineBytes = 64

// chaseLevels are the memory-hierarchy components whose chase kernels
// define the machine's bandwidth ceilings.
var chaseLevels = map[bench.Component]bool{
	bench.CompL1: true, bench.CompL2: true, bench.CompL3: true, bench.CompDRAM: true,
}

// RooflinePoint places one external workload configuration on the roofline:
// measured instruction throughput against measured DRAM traffic, and the
// arithmetic intensity (instructions per byte) that ratio implies.
type RooflinePoint struct {
	Workload              string  `json:"workload"`
	Label                 string  `json:"label"`
	Threads               int     `json:"threads"`
	Placement             string  `json:"placement"`
	InstrPerSec           float64 `json:"instr_per_sec,omitempty"`
	DRAMBytesPerSec       float64 `json:"dram_bytes_per_sec,omitempty"`
	IntensityInstrPerByte float64 `json:"intensity_instr_per_byte,omitempty"`
	// DRAMUtilization is DRAMBytesPerSec over the dram ceiling, when known.
	DRAMUtilization float64 `json:"dram_utilization,omitempty"`
	// Bound classifies the point against the ridge: "memory" below the
	// ridge intensity, "compute" at or above it; empty when the ceilings
	// needed to place the ridge are missing.
	Bound string `json:"bound,omitempty"`
	// Err explains why the point could not be placed (no counters, missing
	// events).
	Err string `json:"error,omitempty"`
}

// Roofline is the CARM-style placement of every external workload against
// the machine's measured ceilings: bandwidth per memory level from the
// chase kernels' known bytes-per-iteration traffic, instruction throughput
// from the compute kernels' counters.
type Roofline struct {
	// CeilingsBytesPerSec maps each chase level (l1, l2, l3, dram) to the
	// best bandwidth any stored chase-kernel configuration achieved:
	// lineBytes × iters × threads / wall time.
	CeilingsBytesPerSec map[string]float64 `json:"ceilings_bytes_per_sec,omitempty"`
	// PeakInstrPerSec is the best measured aggregate instruction rate of
	// any stored kernel configuration (requires counter results).
	PeakInstrPerSec float64 `json:"peak_instr_per_sec,omitempty"`
	// RidgeInstrPerByte is PeakInstrPerSec over the dram ceiling: the
	// intensity below which a workload is memory-bound.
	RidgeInstrPerByte float64         `json:"ridge_instr_per_byte,omitempty"`
	Points            []RooflinePoint `json:"points"`
}

// BuildRoofline derives the ceilings from the store's kernel results and
// places every external-workload result against them. An error is returned
// only when the store holds no workload results at all.
func BuildRoofline(results []harness.Result) (*Roofline, error) {
	rf := &Roofline{CeilingsBytesPerSec: map[string]float64{}}
	for _, r := range results {
		if r.Workload != "" || r.IsCoRun() {
			continue
		}
		if chaseLevels[r.Component] && r.TimeS.Mean > 0 {
			bw := lineBytes * float64(r.Iters) * float64(r.Threads) / r.TimeS.Mean
			if bw > rf.CeilingsBytesPerSec[string(r.Component)] {
				rf.CeilingsBytesPerSec[string(r.Component)] = bw
			}
		}
		if r.Counters != nil {
			if rate, ok := r.Counters.TotalRateHz("instructions", 0); ok && rate > rf.PeakInstrPerSec {
				rf.PeakInstrPerSec = rate
			}
		}
	}
	if len(rf.CeilingsBytesPerSec) == 0 {
		rf.CeilingsBytesPerSec = nil
	}
	dram := 0.0
	if rf.CeilingsBytesPerSec != nil {
		dram = rf.CeilingsBytesPerSec[string(bench.CompDRAM)]
	}
	if dram > 0 && rf.PeakInstrPerSec > 0 {
		rf.RidgeInstrPerByte = rf.PeakInstrPerSec / dram
	}

	for _, r := range results {
		if r.Workload == "" {
			continue
		}
		p := RooflinePoint{
			Workload:  r.Workload,
			Label:     label(r),
			Threads:   r.Threads,
			Placement: string(r.Placement),
		}
		switch {
		case r.Counters == nil:
			p.Err = "result carries no counters (re-run the workload with counters enabled)"
		default:
			instr, okI := r.Counters.TotalRateHz("instructions", 0)
			miss, okM := r.Counters.TotalRateHz("llc-misses", 0)
			switch {
			case !okI:
				p.Err = "instructions not counted (add it to --counters)"
			case !okM:
				p.Err = "llc-misses not counted (add it to --counters)"
			default:
				p.InstrPerSec = instr
				p.DRAMBytesPerSec = miss * lineBytes
				if p.DRAMBytesPerSec > 0 {
					p.IntensityInstrPerByte = instr / p.DRAMBytesPerSec
				}
				if dram > 0 {
					p.DRAMUtilization = p.DRAMBytesPerSec / dram
				}
				if rf.RidgeInstrPerByte > 0 && p.DRAMBytesPerSec > 0 {
					if p.IntensityInstrPerByte < rf.RidgeInstrPerByte {
						p.Bound = "memory"
					} else {
						p.Bound = "compute"
					}
				} else if rf.RidgeInstrPerByte > 0 {
					// No observed DRAM traffic at all: the point sits on the
					// compute side by definition.
					p.Bound = "compute"
				}
			}
		}
		rf.Points = append(rf.Points, p)
	}
	if len(rf.Points) == 0 {
		return nil, fmt.Errorf("model: the store holds no external-workload results to place on the roofline")
	}
	sort.Slice(rf.Points, func(i, j int) bool { return rf.Points[i].Label < rf.Points[j].Label })
	return rf, nil
}
