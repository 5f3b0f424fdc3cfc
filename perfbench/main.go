// Command perfbench is the repository benchmark: one command that drives
// the real binaries (cmd/figures, cmd/scenarios atlas, cmd/swapd) through a
// seeded workload, checks their outputs against computations made apart
// from the program, and prints every end-to-end metric by name and unit.
// A traced run (-trace 1) instead reports per-layer metrics, measured from
// outside the program: spans recorded around the benchmark's own calls
// into each layer, timings of the layers' public functions on the
// workload's inputs, and the counters the program already reports.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload figures-cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"setup_s":{"value":0.01,"unit":"s"},...}}
//
// Lines before it give the machine fingerprint, the workload's seeds, the
// issue-level metric names each generic metric stands for, and (traced)
// the per-layer self-time table. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one seeded input set the benchmark can run.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, e *env) (*outcome, error)
}

// workloads lists every workload, in BENCHMARK.json order.
func workloads() []workload {
	return []workload{
		{"figures-cold", "the full paper-artifact run in fresh processes: core, figures and sweep grid scans, empty process caches", runFigures},
		{"atlas-sweep", "a generated universe swept cold into an empty store, then warm from it: core, variant and store both ways", runAtlas},
		{"quote-mix", "swapd quotes over loopback HTTP, open then closed loop: rpc, response cache, single-flight and the MC engine", runQuote},
		{"simulate-stream", "WebSocket swap.simulate streams in the pseudo and sobol samplers: the MC engine and WebSocket framing", runStream},
	}
}

// e2eMetrics are the end-to-end metrics every untraced run reports, with
// their units (see README.md for what each means per workload).
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"primary_p50_ms", "ms"},
	{"secondary_p50_ms", "ms"},
	{"rate_per_s", "1/s"},
}

// layerMetrics are the per-layer metrics every traced run reports.
var layerMetrics = []struct{ name, unit string }{
	{"figures.slowest_group_ms", "ms"},
	{"figures.group_sum_ms", "ms"},
	{"figures.fig10b_ms", "ms"},
	{"figures.fig8_ms", "ms"},
	{"figures.fig6_ms", "ms"},
	{"figures.reputation_ms", "ms"},
	{"figures.packetized_ms", "ms"},
	{"figures.fig11_ms", "ms"},
	{"figures.uncertainty_ms", "ms"},
	{"figures.montecarlo_ms", "ms"},
	{"core.model_build_us", "us"},
	{"core.success_rate_us", "us"},
	{"core.optimal_rate_us", "us"},
	{"core.cont_range_t2_us", "us"},
	{"solvecache.model_hits", "count"},
	{"solvecache.model_misses", "count"},
	{"solvecache.evictions", "count"},
	{"variant.cell_us", "us"},
	{"variant.cell_mc_us", "us"},
	{"mc.pseudo_paths_per_s", "paths/s"},
	{"mc.sobol_paths_per_s", "paths/s"},
	{"swapsim.path_us", "us"},
	{"mc.bytes_per_path", "B"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.entry_bytes", "B"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.puts", "count"},
	{"config.generate_ms", "ms"},
	{"atlas.write_artifacts_ms", "ms"},
	{"rpc.decode_us", "us"},
	{"rpc.transport_p50_us", "us"},
	{"rpc.server_cold_p50_us", "us"},
	{"rpc.server_hot_p50_us", "us"},
	{"rpc.resp_cache_hits", "count"},
	{"rpc.resp_cache_misses", "count"},
	{"rpc.resp_cache_evictions", "count"},
	{"rpc.coalesce_waiters", "count"},
	{"rpc.admission_queued", "count"},
	{"rpc.ws_frames_per_stream", "count"},
	{"rpc.ws_frame_bytes", "B"},
	{"bench.generator_late_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.steal_pct", "%"},
}

// env is one run's settings and scratch space.
type env struct {
	bin     string        // directory holding the built binaries
	work    string        // scratch directory, emptied per run
	seed    int64         // the workload seed
	budget  time.Duration // how long the measured phase lasts
	traced  bool          // traced run: per-layer metrics, spans
	mini    bool          // one small round (a traced run's companion)
	tr      *tracer       // span recorder (nil records nothing)
	nproc   int           // connection cap for the load generator
	seedLog []string      // derived seeds, for the fingerprint
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int64
	// problems lists failed correctness checks; empty means correct.
	problems []string
	// e2e holds the generic end-to-end metrics (untraced runs).
	e2e map[string]float64
	// layer holds per-layer metrics (traced runs).
	layer map[string]float64
	// report holds the issue-level metric lines printed before the result.
	report []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// checkf records a failed correctness check unless ok holds.
func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// reportf records one issue-level metric line.
func (o *outcome) reportf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// noteSeed records a seed the workload derived from -seed.
func (e *env) noteSeed(name string, v int64) {
	e.seedLog = append(e.seedLog, fmt.Sprintf("%s=%d", name, v))
}

// rounds runs whole rounds of the workload's operations until the
// measured phase has used its budget; a companion (mini) run does one. In
// a traced run every odd round runs untraced (tr is nil), so the tracing
// overhead shows as the difference between the two halves.
func (e *env) rounds(ctx context.Context, round func(r int, tr *tracer) error) (int, error) {
	start := time.Now()
	var last time.Duration
	for r := 0; ; r++ {
		if r > 0 && (e.mini || time.Since(start)+last/2 >= e.budget) {
			return r, nil
		}
		if err := ctx.Err(); err != nil {
			return r, err
		}
		tr := e.tr
		if r%2 == 1 {
			tr = nil
		}
		began := time.Now()
		if err := round(r, tr); err != nil {
			return r, err
		}
		last = time.Since(began)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", 15, "length of the measured phase in seconds")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		bin     = fs.String("bin", ".bench_build/bin", "directory holding the built figures, scenarios and swapd binaries")
		work    = fs.String("work", ".bench_build/work", "scratch directory (emptied at the start of every run)")
		tree    = fs.String("tree", "unknown", "source tree hash, recorded in the fingerprint")
		commit  = fs.String("commit", "none", "git commit, recorded in the fingerprint")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, have %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be >= 1, have %d", *seconds)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	for _, b := range []string{"figures", "scenarios", "swapd"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			return fmt.Errorf("binary %s not built: %w", b, err)
		}
	}
	if err := os.RemoveAll(*work); err != nil {
		return fmt.Errorf("clearing scratch: %w", err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fmt.Errorf("creating scratch: %w", err)
	}
	defer os.RemoveAll(*work)

	e := &env{
		bin:    *bin,
		work:   *work,
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		nproc:  runtime.NumCPU(),
	}
	if e.traced {
		e.tr = newTracer()
	}
	stealBefore := readCPUTicks()
	o, err := w.run(ctx, e)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	steal := stealBefore.stealPct(readCPUTicks())
	fp := fingerprint(*tree, *commit, w.name, *seed, *seconds, *trace, e.seedLog)
	fmt.Fprintf(out, "fingerprint %s\n", fp)

	metrics := map[string]metric{}
	if e.traced {
		// Fill the layers this workload does not exercise from one small
		// round of each other workload, so every traced run reports the
		// full per-layer set (README.md, "Per-layer metrics").
		for _, other := range workloads() {
			if other.name == w.name {
				continue
			}
			sub := &env{bin: e.bin, work: filepath.Join(e.work, "mini-"+other.name), seed: e.seed,
				budget: 0, traced: true, mini: true, tr: e.tr, nproc: e.nproc}
			if err := os.MkdirAll(sub.work, 0o755); err != nil {
				return err
			}
			so, err := other.run(ctx, sub)
			if err != nil {
				return fmt.Errorf("%s (companion round): %w", other.name, err)
			}
			for k, v := range so.layer {
				if _, own := o.layer[k]; !own {
					o.layer[k] = v
				}
			}
			o.problems = append(o.problems, so.problems...)
		}
		for _, line := range e.tr.selfTimeTable() {
			fmt.Fprintf(out, "self %s\n", line)
		}
		if err := e.tr.writeFile(filepath.Join(filepath.Dir(*work), fmt.Sprintf("trace-%s-%d.json", w.name, *seed))); err != nil {
			return err
		}
		o.layer["bench.steal_pct"] = steal
		for _, m := range layerMetrics {
			v, ok := o.layer[m.name]
			if !ok {
				return fmt.Errorf("traced run produced no %s", m.name)
			}
			metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			v, ok := o.e2e[m.name]
			if !ok {
				return fmt.Errorf("run produced no %s", m.name)
			}
			metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	for _, line := range o.report {
		fmt.Fprintf(out, "metric %s\n", line)
	}
	fmt.Fprintf(out, "metric bench.steal_pct %.2f %% (CPU time the hypervisor gave to other guests during the run)\n", steal)
	for _, p := range o.problems {
		fmt.Fprintf(out, "CHECK FAILED %s\n", p)
	}
	if o.attempted < 1 {
		return errors.New("no operation attempted")
	}
	res, err := json.Marshal(result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", res)
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fingerprint renders the machine and settings of a run as one JSON
// object: GOMAXPROCS is recorded beside nproc because before Go 1.25 it
// ignores a container CPU quota.
func fingerprint(tree, commit, name string, seed int64, seconds, trace int, seeds []string) string {
	sort.Strings(seeds)
	fp := map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"tree":       tree,
		"workload":   name,
		"seed":       seed,
		"seeds":      seeds,
		"seconds":    seconds,
		"trace":      trace,
	}
	data, _ := json.Marshal(fp) // a map of plain values always marshals
	return string(data)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks is the machine-wide CPU time split of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads the aggregate "cpu" line of /proc/stat (zero when it
// is unreadable, which stealPct reports as 0).
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of CPU time stolen by the hypervisor between two
// readings, in percent: time the machine's other guests took from this one.
func (a cpuTicks) stealPct(b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}
