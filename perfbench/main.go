// Command perfbench is energybench's benchmark. It builds nothing itself
// (perfbench/run.sh builds the binaries), generates every workload's inputs
// from --seed, and measures one workload for --seconds:
//
//	bash perfbench/run.sh --workload sweep-inproc --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it drives the energybench CLI as a user does and reports
// the end-to-end metrics; with --trace 1 it runs the same workload through
// the packages' public functions with a span around every call into a
// layer, and reports the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// NOTES.md explains every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, with their units. NOTES.md defines each per workload.
var endToEnd = []struct{ name, unit string }{
	{"trials_per_s", "1/s"},
	{"measured_share", "share"},
	{"cpu_ms_per_trial", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"analyze_s", "s"},
	{"ingest_records_per_s", "1/s"},
}

// ops counts a pass's operations: trials dispatched, records offered and
// output checks made, and how many of them failed.
type ops struct{ attempted, failed int }

func (o *ops) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// workload is one benchmark workload: set-up generates its inputs, pass
// runs it once through the CLI and returns its end-to-end metric values, and
// traced runs it once through the packages under a tracer.
type workload interface {
	setup(ctx context.Context) error
	pass(ctx context.Context) (metricsAt, ops, error)
	traced(ctx context.Context, tr *tracer) (tracedPass, error)
}

// metricsAt gives a pass's end-to-end metric values with every wall and CPU
// time the pass measured divided by the host's wall or CPU slowness h;
// metricsAt(asMeasured) is the values as measured.
type metricsAt func(h host) map[string]float64

// env is what every workload shares: the run's scratch directory, the
// seed's generator and the binaries. Every path is relative to the checkout
// root, the working directory of the driver and of every process it starts.
type env struct {
	dir    string // scratch directory of this run, relative to the checkout root
	seed   int64
	g      *gen
	cli    *cli
	stress string // the externstress binary, relative to the checkout root
}

func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "sweep-inproc":
		return &sweep{env: e, subprocess: false}, nil
	case "sweep-subproc":
		return &sweep{env: e, subprocess: true}, nil
	case "store-analyze":
		return &storeAnalyze{env: e}, nil
	case "fleet-job":
		return &fleetJob{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep-inproc|sweep-subproc|store-analyze|fleet-job)", name)
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run")
		seed    = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds = fs.Int("seconds", 25, "how long to measure")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics through the CLI; 1: per-layer metrics under a tracer")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	// Run from the checkout root, which run.sh has built the binaries in.
	for _, bin := range []string{".bench_build/energybench", ".bench_build/externstress", ".bench_build/launch"} {
		if _, err := os.Stat(bin); err != nil {
			return fmt.Errorf("missing %s (build with perfbench/run.sh): %w", bin, err)
		}
	}
	abs, err := filepath.Abs(".bench_build/energybench")
	if err != nil {
		return err
	}
	e := &env{
		dir:    filepath.Join(".scratch", "perfbench", *name),
		seed:   *seed,
		g:      newGen(*seed),
		cli:    &cli{bin: abs, launch: ".bench_build/launch"},
		stress: ".bench_build/externstress",
	}
	w, err := newWorkload(*name, e)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(e.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	if err := w.setup(ctx); err != nil {
		return fmt.Errorf("%s set-up: %w", *name, err)
	}
	budget := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 0 {
		rep, err = measure(ctx, w, e.dir, e.cli.launch, budget)
	} else {
		rep, err = measureTraced(ctx, w, *name, e.dir, budget)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// minPasses is the least number of timed passes a run reports medians over,
// however long a pass takes.
const minPasses = 5

// measure runs one untimed warm-up pass (the CPU runs at about half speed
// for the first ~200 ms after idling), then timed passes until the budget is
// spent, each after a calibration. It reports every end-to-end metric as its
// median over the passes, with every duration divided by the run's host
// slowness: the trimmed means of the calibrations' wall and CPU slowness.
// Every pass's values, normalized and as measured, and every calibration
// are kept in passes.json in the run's directory.
func measure(ctx context.Context, w workload, dir, launch string, budget time.Duration) (*report, error) {
	cal, err := newCalibration(launch)
	if err != nil {
		return nil, err
	}
	if _, err := cal.run(); err != nil {
		return nil, err
	}
	if _, o, err := w.pass(ctx); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	} else if o.failed > 0 {
		return nil, fmt.Errorf("warm-up pass failed %d of %d checks", o.failed, o.attempted)
	}
	var (
		passes     []metricsAt
		walls, cpu []float64
		cals       []host
		total      ops
	)
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h, err := cal.run()
		if err != nil {
			return nil, err
		}
		cals, walls, cpu = append(cals, h), append(walls, h.Wall), append(cpu, h.CPU)
		m, o, err := w.pass(ctx)
		total.attempted += o.attempted
		total.failed += o.failed
		if err != nil {
			total.failed++
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %v\n", n+1, err)
			continue
		}
		passes = append(passes, m)
	}
	if len(passes) == 0 {
		return nil, errors.New("no pass succeeded")
	}
	h := host{Wall: trimmedMean(walls), CPU: trimmedMean(cpu)}
	values, measured := map[string][]float64{}, map[string][]float64{}
	for _, m := range passes {
		for k, v := range m(h) {
			values[k] = append(values[k], v)
		}
		for k, v := range m(asMeasured) {
			measured[k] = append(measured[k], v)
		}
	}
	rep := &report{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: map[string]metric{}}
	var spread []string
	for _, m := range endToEnd {
		xs := values[m.name]
		rep.Metrics[m.name] = metric{Value: median(xs), Unit: m.unit}
		spread = append(spread, fmt.Sprintf("%s=%.4g (iqr %.1f%%, as measured %.4g)", m.name, median(xs), 100*iqrShare(xs), median(measured[m.name])))
	}
	sort.Strings(spread)
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, host slowness %.3f wall, %.3f CPU: %s\n", len(passes), h.Wall, h.CPU, strings.Join(spread, " "))
	return rep, writeJSONFile(filepath.Join(dir, "passes.json"), map[string]any{
		"host_slowness": h,
		"calibrations":  cals,
		"normalized":    values,
		"measured":      measured,
	})
}
