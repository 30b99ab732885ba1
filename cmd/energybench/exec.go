package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"energybench/internal/campaign"
	"energybench/internal/extwork"
	"energybench/internal/fleet"
	"energybench/internal/harness"
	"energybench/internal/meter"
)

// execConfig is the one value every meter and executor stack is built
// from: the execution environment a fleet batch carries (meter, mock
// parameters, executor, parallelism, trial timeout) plus the flag-only mock
// power schedule, which campaign files cannot set.
type execConfig struct {
	fleet.ExecConfig
	mockSchedule string
}

// meterFlags registers the meter flags `run` and `worker-trial` share,
// returning the config they fill in on fs.Parse.
func meterFlags(fs *flag.FlagSet) *execConfig {
	ec := &execConfig{}
	fs.StringVar(&ec.Meter, "meter", "mock", "energy backend: mock|rapl")
	fs.Float64Var(&ec.MockWatts, "mock-watts", 42, "constant power modeled by the mock meter")
	fs.StringVar(&ec.mockSchedule, "mock-schedule", "", "piecewise-constant mock power schedule 'atS:watts,...' (requires --meter=mock)")
	fs.StringVar(&ec.MockModel, "mock-model", "", "planted linear mock power model 'component:watts,...' added per active thread (requires --meter=mock)")
	fs.Float64Var(&ec.MockNoiseW, "mock-noise", 0, "deterministic per-configuration noise amplitude for a planted mock model (watts)")
	return ec
}

// newExecutor builds the meter and the executor stack over it. It is the
// one constructor behind a local sweep, a fleet agent's batch, and a
// worker child: the kernel stack (newKernelStack) topped with the extern
// layer. External workloads always run through the extern executor,
// metered from this process with the same meter.
func newExecutor(ec execConfig, log func(format string, args ...any)) (harness.Executor, error) {
	ks, err := newKernelStack(ec)
	if err != nil {
		return nil, err
	}
	return ks.executor(ec.TrialTimeout, log), nil
}

// kernelStack is the part of an executor stack that may serve more than
// one batch: the meter and the kernel executor over it. Kernel trials run
// in this process (InProcess, which grafts catalog kernels back onto
// trials that crossed a process boundary and keeps the workspaces it
// builds) or, with the subprocess executor, in worker-trial children that
// receive the meter configuration as flags.
type kernelStack struct {
	meter   meter.EnergyMeter
	kernels harness.Executor
}

// newKernelStack builds the meter and the kernel executor. The meter is
// built even when only workers use it, so a systematically broken backend
// (e.g. rapl without powercap read access) fails once here instead of once
// per spawned worker.
func newKernelStack(ec execConfig) (kernelStack, error) {
	m, err := ec.newMeter()
	if err != nil {
		return kernelStack{}, err
	}
	ks := kernelStack{meter: m, kernels: &harness.InProcess{Meter: m}}
	if ec.Executor == campaign.ExecutorSubprocess {
		self, err := os.Executable()
		if err != nil {
			return kernelStack{}, fmt.Errorf("locating own binary for worker re-exec: %w", err)
		}
		ks.kernels = &harness.Subprocess{
			Binary:  self,
			Args:    ec.workerArgs(),
			Env:     []string{workerEnvMarker + "=1"},
			Timeout: ec.TrialTimeout,
		}
	}
	return ks, nil
}

// executor tops the kernel stack with a fresh extern layer, whose
// build-step outcomes last as long as it does.
func (ks kernelStack) executor(timeout time.Duration, log func(format string, args ...any)) harness.Executor {
	return &extwork.ExternExecutor{Meter: ks.meter, Fallback: ks.kernels, Timeout: timeout, Log: log}
}

// workerArgs is the worker-trial command line that rebuilds this meter in
// a child, so the parent never ships a meter across the process boundary.
func (ec execConfig) workerArgs() []string {
	args := []string{"worker-trial", "--meter=" + ec.Meter}
	if ec.Meter == "mock" {
		args = append(args, fmt.Sprintf("--mock-watts=%g", ec.MockWatts))
		if ec.mockSchedule != "" {
			args = append(args, "--mock-schedule="+ec.mockSchedule)
		}
		if ec.MockModel != "" {
			args = append(args, "--mock-model="+ec.MockModel)
			if ec.MockNoiseW > 0 {
				args = append(args, fmt.Sprintf("--mock-noise=%g", ec.MockNoiseW))
			}
		}
	}
	return args
}

// newMeter constructs the energy backend, so a new backend only needs
// wiring here. It checks the mock parameters itself, because a worker child
// or a fleet batch reaches it without passing through campaign validation.
func (ec execConfig) newMeter() (meter.EnergyMeter, error) {
	if ec.mockSchedule != "" && ec.Meter != "mock" {
		return nil, fmt.Errorf("--mock-schedule requires --meter=mock, got meter %q", ec.Meter)
	}
	if ec.MockModel != "" && ec.Meter != "mock" {
		return nil, fmt.Errorf("--mock-model requires --meter=mock, got meter %q", ec.Meter)
	}
	if ec.MockModel != "" && ec.mockSchedule != "" {
		return nil, fmt.Errorf("--mock-model and --mock-schedule are exclusive: a planted model already defines the draw over time")
	}
	switch ec.Meter {
	case "mock":
		if err := meter.ValidateMock(ec.MockWatts, ec.MockModel, ec.MockNoiseW); err != nil {
			return nil, err
		}
		steps, err := meter.ParseMockSchedule(ec.mockSchedule)
		if err != nil {
			return nil, err
		}
		m := meter.NewMock(ec.MockWatts)
		m.Steps = steps
		m.ModelW, _ = meter.ParseMockModel(ec.MockModel) // checked by ValidateMock
		m.NoiseW = ec.MockNoiseW
		return m, nil
	case "rapl":
		return meter.NewRAPL(meter.DefaultPowercapRoot)
	default:
		return nil, fmt.Errorf("unknown meter %q (want mock|rapl)", ec.Meter)
	}
}
