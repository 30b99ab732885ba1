// Command energybench sweeps a micro-benchmark exploration space
// (kernels × thread counts × placements, solo or co-run pairs), measures
// energy per configuration, persists results to a result store (single JSONL
// file or sharded segment directory), and derives the paper's analyses: a
// fitted linear power model and co-run interference.
//
//	energybench list
//	energybench run --meter=mock --reps=3 --threads=1,2 --store=results.jsonl
//	energybench store query --db=results.jsonl --where spec=daxpy
//	energybench store compact --db=results.jsonl --shard
//	energybench analyze --db=results.jsonl
//	energybench compare --db=results.jsonl
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"energybench/internal/adapt"
	"energybench/internal/bench"
	"energybench/internal/campaign"
	"energybench/internal/fleet"
	"energybench/internal/harness"
	"energybench/internal/model"
	"energybench/internal/par"
	"energybench/internal/perf"
	"energybench/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "energybench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return cmdList(args[1:], stdout, stderr)
	case "run":
		return cmdRun(ctx, args[1:], stdout, stderr)
	case "worker-trial":
		return cmdWorkerTrial(ctx, args[1:], os.Stdin, stdout, stderr)
	case "serve":
		return cmdServe(ctx, args[1:], stdout, stderr)
	case "agent":
		return cmdAgent(ctx, args[1:], stdout, stderr)
	case "submit":
		return cmdSubmit(ctx, args[1:], stdout, stderr)
	case "store":
		return cmdStore(args[1:], stdout, stderr)
	case "analyze":
		return cmdAnalyze(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "-h", "--help", "help":
		usage(stdout)
		return nil
	default:
		usage(stderr)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  energybench list [flags]         print the benchmark catalog as JSON; with
                                   space flags, print the planned trial count instead
  energybench run [flags]          sweep the exploration space, print JSON results
  energybench store query [flags]    stream matching records (or --keys) out of a store
  energybench store add [flags]      append results to a store ('run' JSON, a
                                     record array, or an NDJSON record stream)
  energybench store compact [flags]  rewrite a store deduplicated; --shard migrates
                                     a single file to the sharded segment layout
  energybench analyze [flags]      fit the linear power model over a store
  energybench compare [flags]      report co-run interference vs solo baselines
  energybench serve [flags]        run the fleet coordinator daemon (HTTP API)
  energybench agent [flags]        run a fleet agent executing leased trial batches
  energybench submit [flags]       submit a campaign file to a coordinator

A store path is either a single JSONL file or a sharded segment-store
directory; every subcommand auto-detects the layout. 'run --store' creates a
single file for .jsonl/.json paths and a sharded store otherwise.

The run and list flags describe a one-space campaign, validated and planned
exactly like a campaign file. Each sweep flag sets the campaign key of the
same name with '-' as '_' (--iter-scale sets iter_scale), except --placement,
which sets placements, and --mock-noise, which sets mock_noise_w. Two rules
stay flag-only: --mock-schedule has no key, and --counter-backend requires
--counters (a file's counter_backend alone means the default events).

space flags (run, and list for sizing a sweep):
  --specs=a,b         comma-separated spec names (default: full catalog)
  --corun=a+b,c+d     co-run pairs: each runs both specs concurrently,
                      --threads counts threads per spec
  --threads=1,2       comma-separated thread counts (default 1,2)
  --placement=p,q     comma-separated placements: none|compact|scatter (default none)
  --reps=N            fixed repetitions per configuration (default 3)
  --min-reps=N        adaptive: minimum measured repetitions (default: --reps)
  --max-reps=N        adaptive: repetition hard cap; enables early stop when
                      the energy CV reaches --cv-target (default: fixed reps)
  --cv-target=F       energy-CV convergence target for early stop (default 0.05)
  --warmup=N          discarded warm-up repetitions (default 1)
  --iter-scale=F      scale every spec's default iteration count (default 1.0)
  --max-cv=F          CV threshold for outlier rejection, 0 disables (default 0.2)
  --sample-interval=D poll the energy meter (and counter sessions) on this Go
                      duration during each measured rep, storing a per-rep
                      time-resolved series on every sample (0 disables)

run flags:
  --campaign=FILE     run a declarative campaign file (YAML or JSON) naming
                      spaces, executor, parallelism, and store — plus
                      'workloads:' entries that run real external programs
                      as metered regions (see testdata/extern.yaml);
                      exclusive with the space/meter/store flags (--dry-run
                      and --progress still apply)
  --meter=mock|rapl   energy backend (default mock; rapl needs /sys/class/powercap read access)
  --mock-watts=N      constant power the mock meter models (default 42)
  --mock-schedule=S   piecewise-constant mock power schedule 'atS:watts,...'
                      (e.g. '0.05:60,0.1:20'); before the first boundary the
                      draw is --mock-watts; requires --meter=mock
  --mock-model=S      plant a linear mock power model 'component:watts,...'
                      added per active thread on top of --mock-watts (the
                      intercept), giving the mock configuration-dependent
                      power; requires --meter=mock, exclusive with
                      --mock-schedule
  --mock-noise=F      deterministic per-configuration noise amplitude (watts)
                      on a planted --mock-model, so fits see residual scatter
  --algo=NAME         campaign planning algorithm (default all): 'all' sweeps
                      the grid exhaustively; 'active' runs the adaptive
                      planner, dispatching the trials with the highest
                      expected information gain until every model
                      coefficient's relative standard error is below
                      --target-rse; 'bo' searches for the lowest-EDP
                      configuration by expected improvement. Adaptive runs
                      print a planner report (rounds, trials, final fit) on
                      stdout; results stream to --store
  --batch=N           adaptive: trials dispatched per planning round (default 8)
  --budget=N          adaptive: cap on newly executed trials (default: full grid)
  --target-rse=F      active: convergence target for the worst coefficient's
                      relative standard error (default 0.05)
  --seed=N            adaptive: seed for every random choice the planner
                      makes (default 1); same seed, same trial selections
  --executor=NAME     trial backend: inprocess (default) or subprocess —
                      each trial in a freshly exec'd worker child, so
                      pinning/warmup/metering run in a quiet process and a
                      crashed trial doesn't kill the sweep
  --parallel=N        max concurrently running trials under the core-leasing
                      scheduler (default 1; >1 requires --executor=subprocess)
  --trial-timeout=D   kill a worker child running longer than this Go
                      duration (subprocess executor only; default: no limit)
  --counters=EVENTS   meter hardware activity around every measured region:
                      a comma-separated event list, or 'default' for
                      instructions,cycles,l1d-misses,llc-misses,stalled-backend;
                      scaled counts ride on each result
  --counter-backend=perf|mock
                      activity backend (default perf: Linux perf_event_open,
                      needs perf_event_paranoid <= 2 or CAP_PERFMON; mock
                      plants deterministic per-component rates for CI)
  --store=PATH        also append results to the store at PATH (.jsonl/.json:
                      single file; otherwise a sharded segment directory),
                      flushed per configuration
  --resume            skip trials whose configuration key the --store already
                      holds (logs the skip count; reads only the key index)
  --dry-run           print the planned trials as JSON and exit without running
  --progress          log one line per completed trial to stderr

worker-trial:         internal: run one trial read from stdin and print a
                      result envelope (spawned by --executor=subprocess)

store flags:
  --db=PATH           store file or directory (required)
  --keys              (query) print the sorted configuration-key set instead
                      of records — the resume view; reads only the key index
  --from=FILE         (add) results to append ('-' for stdin): a 'run' JSON
                      array, a 'store query' record array, or an NDJSON
                      record stream (a coordinator's /jobs/{id}/results)
  --shard             (compact) convert a single-file store to the sharded
                      segment layout in place, compacting as it goes
  --where f=v,...     filter: spec|threads|placement|meter|host|workload|key
                      pairs; repeatable, same-field values OR, distinct
                      fields AND

fleet flags (see docs/ARCHITECTURE.md and docs/WIRE.md):
  serve:
  --listen=ADDR       coordinator API address (default 127.0.0.1:7979; :0 for
                      an ephemeral port)
  --data=DIR          coordinator data directory: submitted campaigns, job
                      metadata, and each job's merged store (required)
  --lease-ttl=D       batch lease duration before reclaim + re-dispatch (default 30s)
  --batch=N           max trials per agent lease (default 4)
  --addr-file=FILE    write the bound base URL to FILE (for --listen=:0 scripts)
  agent:
  --coordinator=URL   coordinator base URL (required)
  --name=NAME         host name to register as (default: hostname; must be
                      unique across the fleet)
  --poll=D            idle poll interval when no work is assignable (default 2s)
  --cpus=N            CPU count to advertise (default: detected); trials wider
                      than this are never routed here
  submit:
  --coordinator=URL   coordinator base URL (required)
  --campaign=FILE     campaign file to submit (required); a 'hosts:' list in
                      the file restricts which agents may execute it
  --wait              poll until the job finishes, print the final status JSON
  --analyze           after the job finishes, fetch GET /jobs/{id}/analyze and
                      print the analysis report instead of the raw status
                      (implies --wait)
  --activity=SRC      activity source forwarded to --analyze (nominal|counters)
  --timeout=D         give up waiting after this long (requires --wait)

analyze / compare flags:
  --db=PATH           store file or directory (required)
  --where f=v,...     filter the results used
  --activity=nominal|counters   (analyze) derive per-component activity from
                      workload labels × thread counts (nominal, default) or
                      from measured hardware event rates (counters; needs a
                      store written by 'run --counters')
  --phases            (analyze) segment stored time-resolved series into power
                      phases (change-point detection with per-phase error
                      bars) and flag sustained power declines (throttling);
                      needs a store written by 'run --sample-interval'
  --validate          (analyze) compare the fitted model's predictions against
                      stored external-workload measurements (per-workload
                      power/energy error plus aggregate MAPE); fails when the
                      store holds no workload results. Workload sections also
                      appear automatically whenever workload results exist
  --roofline          (analyze) place stored external workloads on the
                      roofline derived from the chase kernels' measured
                      bandwidth ceilings (needs a store with counters)`)
}

// spaceFlags registers the exploration-space flags shared by run and list,
// returning a function that, after fs.Parse, sets them as c's one space:
// the flags describe a one-space campaign. --specs and --corun both empty
// mean the full catalog.
func spaceFlags(fs *flag.FlagSet, c *campaign.Campaign) func() error {
	sc := campaign.SpaceConfig{CVTarget: new(float64), Warmup: new(int), IterScal: new(float64), MaxCV: new(float64)}
	var (
		specs     = fs.String("specs", "", "comma-separated spec names (default: full catalog)")
		corun     = fs.String("corun", "", "comma-separated co-run pairs, each 'specA+specB'")
		threads   = fs.String("threads", "1,2", "comma-separated thread counts")
		placement = fs.String("placement", "none", "comma-separated placements: none|compact|scatter")
		sampleInt = fs.Duration("sample-interval", 0, "poll the meter on this period during each measured rep, recording a time-resolved series (0 disables)")
	)
	fs.IntVar(&sc.Reps, "reps", 3, "fixed repetitions per configuration")
	fs.IntVar(&sc.MinReps, "min-reps", 0, "adaptive: minimum measured repetitions (0: use --reps)")
	fs.IntVar(&sc.MaxReps, "max-reps", 0, "adaptive: repetition hard cap (0: fixed at the minimum)")
	fs.Float64Var(sc.CVTarget, "cv-target", 0.05, "energy-CV convergence target for adaptive early stop")
	fs.IntVar(sc.Warmup, "warmup", 1, "discarded warm-up repetitions")
	fs.Float64Var(sc.IterScal, "iter-scale", 1.0, "scale factor applied to every spec's iteration count")
	fs.Float64Var(sc.MaxCV, "max-cv", 0.2, "CV threshold for outlier rejection (0 disables)")
	return func() error {
		// A file's omitted reps means the default; --reps=0 is a mistake.
		if sc.Reps == 0 && sc.MinReps == 0 {
			return fmt.Errorf("--reps must be positive (or set --min-reps), got 0")
		}
		var err error
		if sc.Threads, err = parseIntList(*threads); err != nil {
			return fmt.Errorf("--threads: %w", err)
		}
		sc.Specs, sc.Corun, sc.Placements = splitNonEmpty(*specs), splitNonEmpty(*corun), splitNonEmpty(*placement)
		if *specs == "" && *corun == "" {
			for _, s := range bench.Catalog() {
				sc.Specs = append(sc.Specs, s.Name)
			}
		}
		if *sampleInt != 0 {
			c.SampleInterval = sampleInt.String()
		}
		c.Spaces = []campaign.SpaceConfig{sc}
		return nil
	}
}

// planDoc sizes a planned sweep before it burns hours: the trial count and
// the repetition bounds (plus warm-up work, which costs wall clock too).
type planDoc struct {
	Trials       int             `json:"trials"`
	Skipped      int             `json:"skipped,omitempty"`
	MinTotalReps int             `json:"min_total_reps"`
	MaxTotalReps int             `json:"max_total_reps"`
	WarmupReps   int             `json:"warmup_reps"`
	Plan         []harness.Trial `json:"plan"`
}

func newPlanDoc(trials []harness.Trial, skipped int) planDoc {
	doc := planDoc{Trials: len(trials), Skipped: skipped, Plan: trials}
	for _, t := range trials {
		doc.MinTotalReps += t.MinReps
		doc.MaxTotalReps += t.MaxReps
		doc.WarmupReps += t.Warmup
	}
	return doc
}

// cmdList prints the benchmark catalog; with any space flag set it instead
// performs a planner dry-run and prints the estimated trial count, so users
// can size a sweep without running it.
func cmdList(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c campaign.Campaign
	setSpace := spaceFlags(fs, &c)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NFlag() == 0 {
		return writeJSON(stdout, bench.Catalog())
	}
	if err := setSpace(); err != nil {
		return err
	}
	if err := c.Validate(); err != nil {
		return err
	}
	trials, err := c.Plan()
	if err != nil {
		return err
	}
	return writeJSON(stdout, newPlanDoc(trials, 0))
}

func cmdRun(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &campaign.Campaign{}
	setSpace := spaceFlags(fs, c)
	ec := meterFlags(fs)
	fs.StringVar(&ec.Executor, "executor", campaign.ExecutorInProcess, "trial backend: inprocess|subprocess")
	fs.IntVar(&ec.Parallel, "parallel", 1, "max concurrently running trials (requires --executor=subprocess when above 1)")
	fs.DurationVar(&ec.TrialTimeout, "trial-timeout", 0, "kill a subprocess worker running longer than this (0: no limit)")
	fs.StringVar(&c.Algo, "algo", adapt.AlgoAll, "campaign planning algorithm: all (exhaustive) | active (D-optimal model convergence) | bo (expected-improvement EDP search)")
	fs.StringVar(&c.CounterBackend, "counter-backend", "", "activity backend: perf (default) or mock (requires --counters)")
	fs.StringVar(&c.Store, "store", "", "append results to the store file or directory at this path, flushed per configuration")
	fs.BoolVar(&c.Resume, "resume", false, "skip trials already present in the --store")
	var (
		campaignPath = fs.String("campaign", "", "run a declarative campaign file (YAML or JSON)")
		batch        = fs.Int("batch", 0, "adaptive planner: trials dispatched per round (default 8; requires --algo=active|bo)")
		budget       = fs.Int("budget", 0, "adaptive planner: cap on newly executed trials (default: full grid; requires --algo=active|bo)")
		targetRSE    = fs.Float64("target-rse", 0, "adaptive planner: stop once every coefficient's relative standard error is at or below this (default 0.05; requires --algo=active)")
		seed         = fs.Int64("seed", 0, "adaptive planner: seed for every random choice (default 1; requires --algo=active|bo)")
		counters     = fs.String("counters", "", "meter hardware activity: comma-separated event names, or 'default'")
		dryRun       = fs.Bool("dry-run", false, "print the planned trials as JSON without executing them")
		progress     = fs.Bool("progress", false, "log one line per completed trial to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *campaignPath != "" {
		// A campaign file owns the whole sweep definition; mixing it with
		// ad-hoc flags would make the checked-in artifact lie about what
		// ran. Only observation flags stay usable.
		var conflicting []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "campaign", "dry-run", "progress":
			default:
				conflicting = append(conflicting, "--"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			return fmt.Errorf("--campaign is exclusive with %s: the campaign file declares the sweep", strings.Join(conflicting, ", "))
		}
		var err error
		if c, err = campaign.Load(*campaignPath); err != nil {
			return err
		}
		if len(c.Hosts) > 0 {
			return fmt.Errorf("campaign declares hosts (%s): it is fleet-scoped — submit it to a coordinator with 'energybench submit' instead of running it locally", strings.Join(c.Hosts, ", "))
		}
	} else {
		// The flags describe a one-space campaign, validated like a file.
		// Two rules stay flag-only: a file's counter_backend alone means
		// the default events, but --counter-backend alone is a mistake; and
		// the resume error names the flag.
		if *counters == "" && c.CounterBackend != "" {
			return fmt.Errorf("--counter-backend requires --counters (name an event set, or 'default')")
		}
		if c.Resume && c.Store == "" {
			return fmt.Errorf("--resume requires --store")
		}
		if err := setSpace(); err != nil {
			return err
		}
		c.Meter, c.MockWatts, c.MockModel, c.MockNoiseW = ec.Meter, &ec.MockWatts, ec.MockModel, &ec.MockNoiseW
		c.Executor, c.Parallel, c.Counters = ec.Executor, &ec.Parallel, splitNonEmpty(*counters)
		if ec.TrialTimeout != 0 {
			c.TrialTimeout = ec.TrialTimeout.String()
		}
		// The planner knobs count as set only when given, so e.g. --batch
		// without --algo=active|bo is rejected like a file's batch key.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "batch":
				c.Batch = batch
			case "budget":
				c.Budget = budget
			case "target-rse":
				c.TargetRSE = targetRSE
			case "seed":
				c.Seed = seed
			}
		})
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return executeSweep(ctx, c, ec.mockSchedule, *dryRun, *progress, stdout, stderr)
}

// executeSweep plans and runs a validated campaign, from a file or from the
// run flags, under the flag-only mock power schedule; with dryRun it prints
// the plan instead.
func executeSweep(ctx context.Context, c *campaign.Campaign, mockSchedule string, dryRun, progress bool, stdout, stderr io.Writer) error {
	trials, err := c.Plan()
	if err != nil {
		return err
	}
	counters, err := c.CounterSpec()
	if err != nil {
		return err
	}
	if c.Name != "" {
		fmt.Fprintf(stderr, "campaign %q: %d planned trials across %d spaces\n", c.Name, len(trials), len(c.Spaces))
	}
	adaptCfg, adaptive := c.AdaptConfig()
	skipped := 0
	var prior []harness.Result
	if c.Resume {
		// Trial keys only need the backend's name, so resume filtering (and
		// its dry run) works without constructing the meter. A missing store
		// resumes trivially: nothing is stored yet.
		keys := map[string]bool{}
		if st, err := store.Open(c.Store); err == nil {
			keys, err = st.Keys()
			st.Close()
			if err != nil {
				return err
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
		var priorKeys []string
		trials, skipped = harness.FilterTrials(trials, func(t harness.Trial) bool {
			if !keys[t.Key(c.Meter)] {
				return false
			}
			priorKeys = append(priorKeys, t.Key(c.Meter))
			return true
		})
		fmt.Fprintf(stderr, "resume: skipped %d already-stored trials, %d to run\n", skipped, len(trials))
		if adaptive && len(priorKeys) > 0 {
			// The adaptive planner resumes more than the trial list: the
			// already-stored results of this plan seed its fitted state, so
			// an interrupted campaign continues converging instead of
			// re-spreading from scratch.
			if prior, err = loadPriorResults(c.Store, priorKeys); err != nil {
				return err
			}
		}
	}
	if dryRun {
		return writeJSON(stdout, newPlanDoc(trials, skipped))
	}

	// Probe the perf backend once up front: a host that refuses
	// perf_event_open (paranoid kernel, non-Linux, missing PMU) should fail
	// with one actionable error before any trial runs, not once per trial.
	if counters != nil && counters.Backend == perf.BackendPerf {
		if err := perf.Available(); err != nil {
			return fmt.Errorf("%w (use --counter-backend=mock for a functional run without PMU access)", err)
		}
	}

	var log func(format string, args ...any)
	if progress {
		log = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	// Results stream through the sink pipeline as each trial completes: the
	// JSON array on stdout stays well-formed even if the sweep is
	// interrupted, and the store (when configured) has already flushed every
	// finished configuration, so a SIGINT mid-sweep loses nothing. The
	// store sink comes first — durability before presentation — so a
	// stdout write failure can never drop a measured trial from the store.
	var sinks harness.MultiSink
	var storeSink *store.Sink
	if c.Store != "" {
		storeSink = store.NewSink(c.Store)
		sinks = append(sinks, storeSink)
	}
	if !adaptive {
		// An adaptive run prints the planner report on stdout instead of the
		// result array; its results reach the store sink only.
		sinks = append(sinks, harness.NewJSONArraySink(stdout))
	}

	exec, err := newExecutor(execConfig{ExecConfig: fleet.ExecFromCampaign(c), mockSchedule: mockSchedule}, log)
	if err != nil {
		return err
	}
	dispatch := &harness.Scheduler{Executor: exec, Parallel: *c.Parallel, Log: log}

	var runErr error
	if adaptive {
		planner := &adapt.Planner{Cfg: adaptCfg, Dispatch: dispatch, Log: log}
		rep, err := planner.Run(ctx, trials, prior, sinks)
		runErr = err
		if rep != nil {
			if werr := writeJSON(stdout, rep); werr != nil {
				runErr = errors.Join(runErr, werr)
			}
		}
	} else {
		runErr = dispatch.RunPlan(ctx, trials, sinks)
	}
	if err := sinks.Close(); err != nil {
		runErr = errors.Join(runErr, err)
	}
	if storeSink != nil && storeSink.Count() > 0 {
		fmt.Fprintf(stderr, "stored %d results in %s\n", storeSink.Count(), c.Store)
	}
	return runErr
}

// loadPriorResults reads the already-stored results of a resumed adaptive
// plan back out of the store, sorted by configuration key so the planner's
// seeded state (and therefore its selections) is deterministic regardless of
// store layout or write order.
func loadPriorResults(path string, keys []string) ([]harness.Result, error) {
	st, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out []harness.Result
	for rec, err := range st.Query(store.Filter{Keys: keys}) {
		if err != nil {
			return nil, err
		}
		out = append(out, rec.Result)
	}
	sort.Slice(out, func(i, j int) bool {
		return harness.ResultKey(out[i]) < harness.ResultKey(out[j])
	})
	return out, nil
}

// cmdStore dispatches the store verbs.
func cmdStore(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("store needs a subcommand: query|compact|add")
	}
	switch args[0] {
	case "query":
		return cmdStoreQuery(args[1:], stdout, stderr)
	case "compact":
		return cmdStoreCompact(args[1:], stdout, stderr)
	case "add":
		return cmdStoreAdd(args[1:], stdout, stderr)
	default:
		return fmt.Errorf("unknown store subcommand %q (want query|compact|add)", args[0])
	}
}

// cmdStoreQuery streams matching records out of a store of either layout.
func cmdStoreQuery(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("store query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "store file or directory")
	keysOnly := fs.Bool("keys", false, "print the sorted configuration-key set instead of records (the resume view; index-only, no filters)")
	filter := filterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *db == "" {
		return fmt.Errorf("--db is required")
	}
	f, err := filter()
	if err != nil {
		return err
	}
	st, err := store.Open(*db)
	if err != nil {
		return err
	}
	defer st.Close()
	if *keysOnly {
		if !f.IsZero() {
			return fmt.Errorf("--keys lists the full resume key set and takes no filters")
		}
		set, err := st.Keys()
		if err != nil {
			return err
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return writeJSON(stdout, keys)
	}
	out := []store.Record{} // an empty result prints as [], like --keys
	for rec, err := range st.Query(f) {
		if err != nil {
			return err
		}
		out = append(out, rec)
	}
	return writeJSON(stdout, out)
}

// cmdStoreCompact rewrites a store deduplicated; --shard additionally
// migrates a single-file store to the sharded segment layout in place.
func cmdStoreCompact(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("store compact", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "store file or directory")
	shard := fs.Bool("shard", false, "convert a single-file store to the sharded segment layout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *db == "" {
		return fmt.Errorf("--db is required")
	}
	if *shard {
		kept, err := store.Shard(*db)
		if err != nil {
			return err
		}
		st, err := store.Open(*db)
		if err != nil {
			return err
		}
		defer st.Close()
		return writeJSON(stdout, map[string]any{"db": *db, "kept": kept, "sharded": true, "segments": st.Segments()})
	}
	st, err := store.Open(*db)
	if err != nil {
		return err
	}
	defer st.Close()
	kept, err := st.Compact()
	if err != nil {
		return err
	}
	return writeJSON(stdout, map[string]any{"db": *db, "kept": kept})
}

// cmdStoreAdd appends results to a store.
func cmdStoreAdd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("store add", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "store file or directory")
	from := fs.String("from", "", "results JSON file from 'run' ('-' for stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *db == "" || *from == "" {
		return fmt.Errorf("--db and --from are required")
	}
	var r io.Reader = os.Stdin
	if *from != "-" {
		f, err := os.Open(*from)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	results, err := decodeAddInput(r, *from)
	if err != nil {
		return err
	}
	st, err := store.Create(*db)
	if err != nil {
		return err
	}
	n, err := st.Append(results)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return writeJSON(stdout, map[string]any{"db": *db, "added": n})
}

// decodeAddInput accepts any of the result serializations the toolchain
// emits: the JSON array `run` prints, the JSON array of store records
// `store query` prints, or an NDJSON stream of store records (what a fleet
// coordinator's GET /jobs/{id}/results emits) — so merged fleet output
// pipes straight into a local store. Empty or whitespace-only input is an
// empty stream (a job whose trials all failed streams nothing) and decodes
// to no results. Documents are decoded a window at a time on every CPU.
func decodeAddInput(r io.Reader, from string) ([]harness.Result, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		b, err := br.Peek(1)
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("reading results from %s: %w", from, err)
		}
		if b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r' {
			br.Discard(1)
			continue
		}
		if b[0] != '[' {
			return decodeAddNDJSON(br, from)
		}
		break
	}
	var raws []json.RawMessage
	if err := json.NewDecoder(br).Decode(&raws); err != nil {
		return nil, fmt.Errorf("decoding results from %s: %w", from, err)
	}
	results := make([]harness.Result, 0, len(raws))
	step := par.Window()
	for start := 0; start < len(raws); start += step {
		decoded, err := par.Map(raws[start:min(start+step, len(raws))], decodeResultOrRecord)
		results = append(results, decoded...)
		if err != nil {
			return nil, fmt.Errorf("entry %d from %s: %w", len(results)+1, from, err)
		}
	}
	return results, nil
}

// decodeAddNDJSON decodes an NDJSON stream a window of lines at a time. A
// decode error on a line comes before a read error past it, as it would in
// a line-by-line decode.
func decodeAddNDJSON(br *bufio.Reader, from string) ([]harness.Result, error) {
	var results []harness.Result
	var lines []json.RawMessage
	var lineNos []int
	decodeWindow := func() error {
		decoded, err := par.Map(lines, decodeResultOrRecord)
		results = append(results, decoded...)
		if err != nil {
			return fmt.Errorf("record %d from %s: %w", lineNos[len(decoded)], from, err)
		}
		lines, lineNos = lines[:0], lineNos[:0]
		return nil
	}
	step := par.Window()
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		lines = append(lines, bytes.Clone(sc.Bytes()))
		lineNos = append(lineNos, line)
		if len(lines) == step {
			if err := decodeWindow(); err != nil {
				return nil, err
			}
		}
	}
	if err := decodeWindow(); err != nil {
		return nil, err
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading records from %s: %w", from, err)
	}
	return results, nil
}

// resultOrRecord holds both shapes a `store add` document can take. Their
// JSON field names are disjoint, so one decode fills the embedded Result
// from a bare result's fields and the embedded Record from a record's.
type resultOrRecord struct {
	harness.Result
	store.Record
}

// decodeResultOrRecord decodes one JSON document, in one pass, as either a
// bare harness.Result or a store.Record wrapping one, distinguished by
// which shape yields a spec name.
func decodeResultOrRecord(raw json.RawMessage) (harness.Result, error) {
	var doc resultOrRecord
	if err := json.Unmarshal(raw, &doc); err != nil {
		return harness.Result{}, err
	}
	if doc.Result.Spec != "" {
		return doc.Result, nil
	}
	if doc.V > store.SchemaVersion {
		return harness.Result{}, fmt.Errorf("schema v%d, this build reads up to v%d", doc.V, store.SchemaVersion)
	}
	if doc.Record.Result.Spec == "" {
		return harness.Result{}, fmt.Errorf("neither a result nor a store record")
	}
	return doc.Record.Result, nil
}

func cmdAnalyze(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "store file or directory")
	activity := fs.String("activity", model.ActivityNominal,
		"activity source for the fit: nominal (thread counts) or counters (measured event rates)")
	phases := fs.Bool("phases", false,
		"segment stored time-resolved series into power phases and detect throttling instead of fitting the model")
	validate := fs.Bool("validate", false,
		"validate the fit against stored external-workload results (predicted vs measured power/energy); fails when the store holds none")
	roofline := fs.Bool("roofline", false,
		"place stored external-workload results on the roofline derived from the chase kernels; fails when that is impossible")
	filter := filterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *phases && (*validate || *roofline) {
		return fmt.Errorf("--phases is exclusive with --validate/--roofline")
	}
	results, err := queryFiltered(*db, filter)
	if err != nil {
		return err
	}
	if *phases {
		return analyzePhases(results, stdout, stderr)
	}
	rep, err := model.BuildReport(results, model.ReportOptions{
		Activity: *activity,
		Validate: *validate,
		Roofline: *roofline,
	})
	if err != nil {
		return err
	}
	if rep.SkippedNoCounters > 0 {
		fmt.Fprintf(stderr, "analyze: skipped %d stored results without counters\n", rep.SkippedNoCounters)
	}
	return writeJSON(stdout, rep)
}

// phaseReport is the per-repetition phase/throttle analysis of one stored
// time-resolved series.
type phaseReport struct {
	Key        string           `json:"key"`
	Spec       string           `json:"spec"`
	SpecB      string           `json:"spec_b,omitempty"`
	Threads    int              `json:"threads"`
	Placement  string           `json:"placement"`
	Rep        int              `json:"rep"`
	IntervalS  float64          `json:"interval_s"`
	Points     int              `json:"points"`
	MeanPowerW float64          `json:"mean_power_w"`
	Phases     []model.Phase    `json:"phases"`
	Throttles  []model.Throttle `json:"throttles,omitempty"`
}

// phaseAnalysis is the analyze --phases output document.
type phaseAnalysis struct {
	SchemaVersion int           `json:"schema_version"`
	Reports       []phaseReport `json:"reports"`
	// SkippedNoSeries counts stored results dropped because they carry no
	// time-resolved series (written without --sample-interval, or pre-v3).
	SkippedNoSeries int `json:"skipped_no_series,omitempty"`
}

// analyzePhases runs phase segmentation and throttle detection over every
// stored repetition that carries a time-resolved series.
func analyzePhases(results []harness.Result, stdout, stderr io.Writer) error {
	doc := phaseAnalysis{SchemaVersion: store.SchemaVersion, Reports: []phaseReport{}}
	for _, r := range results {
		hasSeries := false
		for rep, s := range r.Samples {
			if s.Series == nil || len(s.Series.Points) == 0 {
				continue
			}
			hasSeries = true
			times := make([]float64, len(s.Series.Points))
			powers := make([]float64, len(s.Series.Points))
			var sum float64
			for i, pt := range s.Series.Points {
				times[i] = pt.TS
				powers[i] = pt.PowerW
				sum += pt.PowerW
			}
			doc.Reports = append(doc.Reports, phaseReport{
				Key:        harness.ResultKey(r),
				Spec:       r.Spec,
				SpecB:      r.SpecB,
				Threads:    r.Threads,
				Placement:  string(r.Placement),
				Rep:        rep,
				IntervalS:  s.Series.IntervalS,
				Points:     len(times),
				MeanPowerW: sum / float64(len(powers)),
				Phases:     model.SegmentPhases(times, powers),
				Throttles:  model.DetectThrottles(times, powers),
			})
		}
		if !hasSeries {
			doc.SkippedNoSeries++
		}
	}
	if len(doc.Reports) == 0 {
		return fmt.Errorf("no stored results carry a time-resolved series (run a sweep with --sample-interval to record them)")
	}
	if doc.SkippedNoSeries > 0 {
		fmt.Fprintf(stderr, "analyze: skipped %d stored results without series\n", doc.SkippedNoSeries)
	}
	return writeJSON(stdout, doc)
}

func cmdCompare(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "store file or directory")
	filter := filterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	results, err := queryFiltered(*db, filter)
	if err != nil {
		return err
	}
	infs := model.Interferences(results)
	if len(infs) == 0 {
		return fmt.Errorf("no co-run results with complete solo baselines in the store (run a --corun sweep plus solo sweeps of both specs at the same --threads and --iter-scale)")
	}
	return writeJSON(stdout, infs)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
