package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// calRefWall and calRefCPU are typical wall and CPU times of one
// calibration on the 2-vCPU VM. Normalized durations read as they would on
// that VM at that speed.
const (
	calRefWall = 20 * time.Millisecond
	calRefCPU  = 22 * time.Millisecond
)

// host is the host's slowness: a calibration's wall and CPU time as
// multiples of calRefWall and calRefCPU. The VM's speed drifts by up to
// half for seconds to minutes at a time, and every duration a pass
// measures drifts with it (NOTES.md). Wall time also stretches while the
// program waits for a CPU, which CPU time does not count, so each kind of
// duration is divided by the slowness of the same kind. Dividing a run's
// durations by the slowness its calibrations measured cancels most of the
// drift.
type host struct {
	Wall float64 `json:"wall"`
	CPU  float64 `json:"cpu"`
}

// asMeasured leaves every duration as measured.
var asMeasured = host{Wall: 1, CPU: 1}

// s is the wall time d, measured at slowness h, in seconds at reference
// speed.
func (h host) s(d time.Duration) float64 { return d.Seconds() / h.Wall }

// cpuS is the CPU time d, measured at slowness h, in seconds at reference
// speed.
func (h host) cpuS(d time.Duration) float64 { return d.Seconds() / h.CPU }

// calibration is fixed work of the two kinds that make up most of the
// program's own, timed by the driver before every pass: decoding and
// re-encoding JSON documents, allocating as it goes, and starting Go
// processes. It uses its own documents and the benchmark's own launcher,
// so no change to energybench changes its cost, and it runs while no
// process of the system under test is busy.
type calibration struct {
	docs   [][]byte
	launch string // the launcher binary; with no arguments it exits at once
}

type calSample struct {
	TimeS    float64   `json:"time_s"`
	EnergyJ  float64   `json:"energy_j"`
	PowerW   float64   `json:"power_w"`
	DomainJ  []float64 `json:"domain_j"`
	Counters []float64 `json:"counters"`
}

type calDoc struct {
	Key     string             `json:"key"`
	Version int                `json:"v"`
	Spec    string             `json:"spec"`
	Threads int                `json:"threads"`
	Samples []calSample        `json:"samples"`
	Summary map[string]float64 `json:"summary"`
}

// calDocs and calSpawns are the calibration's document count and process
// starts; they make its two parts take about the same time.
const (
	calDocs   = 170
	calSpawns = 8
)

// newCalibration builds the documents from a fixed seed, never --seed, so
// every run calibrates with the same work.
func newCalibration(launch string) (*calibration, error) {
	rng := rand.New(rand.NewSource(1))
	c := &calibration{launch: launch}
	for i := 0; i < calDocs; i++ {
		d := calDoc{
			Key:     fmt.Sprintf("spec-%d|t%d|i%d|none|mock", i%7, 1+i%4, 1000*(1+i)),
			Version: 5,
			Spec:    fmt.Sprintf("spec-%d", i%7),
			Threads: 1 + i%4,
			Summary: map[string]float64{},
		}
		for j := 0; j < 4; j++ {
			s := calSample{TimeS: rng.Float64(), EnergyJ: 40 * rng.Float64(), PowerW: 30 + 10*rng.Float64()}
			for k := 0; k < 4; k++ {
				s.DomainJ = append(s.DomainJ, rng.Float64())
			}
			for k := 0; k < 12; k++ {
				s.Counters = append(s.Counters, 1e9*rng.Float64())
			}
			d.Samples = append(d.Samples, s)
		}
		for _, k := range []string{"mean", "median", "stddev", "cv", "min", "max"} {
			d.Summary[k] = rng.Float64()
		}
		b, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		c.docs = append(c.docs, b)
	}
	return c, nil
}

// run times one calibration and returns the host's slowness. Its CPU time
// is the driver's own plus that of the launchers it reaped. It starts from
// a collected heap, so no collection of the driver's own heap, whose size
// differs per workload, falls inside the timed work.
func (c *calibration) run() (host, error) {
	runtime.GC()
	cpu0, err := cpuUsed()
	if err != nil {
		return host{}, err
	}
	start := time.Now()
	for _, b := range c.docs {
		var v map[string]any
		if err := json.Unmarshal(b, &v); err != nil {
			return host{}, fmt.Errorf("calibration: %w", err)
		}
		if _, err := json.Marshal(v); err != nil {
			return host{}, fmt.Errorf("calibration: %w", err)
		}
	}
	for i := 0; i < calSpawns; i++ {
		var exit *exec.ExitError
		if err := exec.Command(c.launch).Run(); !errors.As(err, &exit) {
			return host{}, fmt.Errorf("calibration: starting %s: %v", c.launch, err)
		}
	}
	wall := time.Since(start)
	cpu1, err := cpuUsed()
	if err != nil {
		return host{}, err
	}
	return host{Wall: float64(wall) / float64(calRefWall), CPU: float64(cpu1-cpu0) / float64(calRefCPU)}, nil
}

// cpuUsed is the user plus system CPU time of the driver and of every child
// it has reaped.
func cpuUsed() (time.Duration, error) {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			return 0, fmt.Errorf("calibration: getrusage: %w", err)
		}
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return total, nil
}
