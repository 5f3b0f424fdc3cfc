package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/utility"
)

// Paper values the figures-cold checks hold cmd/figures to (Table III
// discussion, §III.F): the t3 cut-off at P* = 2, the feasible exchange-rate
// range and SR(2), each within its stated tolerance.
const (
	paperCutoff, cutoffTol     = 1.48, 0.01
	paperRangeLo, paperRangeHi = 1.5, 2.5
	rangeTol                   = 0.05
	paperSR2, sr2Tol           = 0.71, 0.01
	monotoneSlack              = 1e-9
)

// figureGroups are the artifact groups whose generation time the traced
// run reports (the slow ones; see figures.Registry).
var figureGroups = []string{"fig10b", "fig8", "fig6", "reputation", "packetized", "fig11", "uncertainty", "montecarlo"}

// runFigures is the figures-cold workload: the full `figures -csv` run in
// a fresh process per sample, so every sample pays for empty process-wide
// caches as a user's invocation does. A round is one run at the default
// worker count (primary) and one at -workers 1 (secondary), where the sum
// of the artifact groups rather than the slowest one sets the wall time.
func runFigures(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	bin := filepath.Join(e.bin, "figures")
	e.noteSeed("figures.probe", e.seed) // the artifact set itself is fixed
	setups, err := cliSetup(ctx, e, bin, "-only", "tableIII")
	if err != nil {
		return nil, err
	}

	var primary, secondary, rates, rss, cpu, tracedP, untracedP []float64
	groupMs := map[string][]float64{}
	var slowest, sums []float64
	var cache cacheStats
	_, err = e.rounds(ctx, func(r int, tr *tracer) error {
		passes := []int{0, 1}
		if e.mini {
			passes = passes[:1]
		}
		for _, workers := range passes {
			dir := filepath.Join(e.work, fmt.Sprintf("csv-%d-%d", r, workers))
			args := []string{"-csv", dir}
			if workers == 1 {
				args = append(args, "-workers", "1")
			}
			if tr != nil {
				args = append(args, "-timing", "-cache-stats")
			}
			op := int64(2*r + workers)
			name := "figures.run"
			if workers == 1 {
				name = "figures.run_workers1"
			}
			sp := tr.start(name, op, 0)
			res, err := runCLI(ctx, bin, args...)
			sp.end()
			o.attempted++
			if err != nil {
				return err
			}
			n := checkFigures(o, dir, res.stdout)
			wallMs := ms(res.wall)
			if workers == 0 {
				primary = append(primary, wallMs)
				rss = append(rss, res.rssMB)
				cpu = append(cpu, res.cpu.Seconds())
				rates = append(rates, float64(n)/res.wall.Seconds())
				if e.traced && r%2 == 0 {
					tracedP = append(tracedP, wallMs)
				} else if e.traced {
					untracedP = append(untracedP, wallMs)
				}
			} else {
				secondary = append(secondary, wallMs)
			}
			if tr != nil {
				groups, total := parseTimings(res.stdout)
				// The program reports durations, not start times. The
				// generation span starts with the run, so the run's self
				// time is process start-up, rendering and CSV output. At
				// -workers 1 the groups run back to back in registry
				// order; otherwise they are placed together at the start,
				// so the generation span's self time is how long the
				// fan-out ran past its slowest group.
				at := tr.origin.Add(sp.Start)
				gen := tr.record("figures.generate", op, sp.id(), at, at.Add(msDur(total)))
				var worst, sum float64
				for _, g := range groups {
					tr.record("figures.group."+g.id, op, gen, at, at.Add(msDur(g.ms)))
					if workers == 1 {
						at = at.Add(msDur(g.ms))
						continue
					}
					groupMs[g.id] = append(groupMs[g.id], g.ms)
					worst = math.Max(worst, g.ms)
					sum += g.ms
				}
				if workers == 0 {
					slowest = append(slowest, worst)
					sums = append(sums, sum)
					cache = parseCacheStats(res.stdout)
				}
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	o.e2e["setup_s"] = median(setups)
	o.e2e["max_rss_mb"] = median(rss)
	o.e2e["primary_p50_ms"] = median(primary)
	o.e2e["secondary_p50_ms"] = median(secondary)
	o.e2e["rate_per_s"] = median(rates)
	o.reportf("figures_s %.4f s (median of %d fresh-process runs)", median(primary)/1000, len(primary))
	o.reportf("figures_cpu_s %.4f s (median CPU time of a full run)", median(cpu))
	o.reportf("figures_workers1_s %.4f s (median of %d runs at -workers 1)", median(secondary)/1000, len(secondary))

	if e.traced {
		o.layer["figures.slowest_group_ms"] = median(slowest)
		o.layer["figures.group_sum_ms"] = median(sums)
		for _, id := range figureGroups {
			o.layer["figures."+id+"_ms"] = median(groupMs[id])
		}
		o.layer["solvecache.model_hits"] = float64(cache.hits)
		o.layer["solvecache.model_misses"] = float64(cache.misses)
		o.layer["solvecache.evictions"] = float64(cache.evicted)
		if err := probeContRange(e, o); err != nil {
			return nil, err
		}
		if !e.mini {
			o.layer["bench.trace_overhead_pct"] = overheadPct(tracedP, untracedP)
		}
	}
	return o, nil
}

var (
	generatedRE = regexp.MustCompile(`generated (\d+) artifacts`)
	cutoffRE    = regexp.MustCompile(`cut-off P̄_t3 = ([0-9.]+)`)
	rangeRE     = regexp.MustCompile(`feasible range \(P̲\*, P̄\*\) = \(([0-9.]+), ([0-9.]+)\)`)
)

// checkFigures holds one figures run's outputs to the paper's values and
// to properties the method must have, returning the artifact count.
func checkFigures(o *outcome, dir string, stdout []byte) int {
	var n int
	if m := generatedRE.FindSubmatch(stdout); m != nil {
		n, _ = strconv.Atoi(string(m[1]))
	}
	o.checkf(n > 0, "figures: no artifact count in output")

	sec := sections(stdout)
	cut := cutoffRE.FindSubmatch(sec["fig3-pstar2.0"])
	if o.checkf(cut != nil, "figures: fig3-pstar2.0 has no cut-off"); cut != nil {
		v, _ := strconv.ParseFloat(string(cut[1]), 64)
		o.checkf(math.Abs(v-paperCutoff) <= cutoffTol, "figures: cut-off %g, paper %g±%g", v, paperCutoff, cutoffTol)
	}
	rng := rangeRE.FindSubmatch(sec["fig5"])
	if o.checkf(rng != nil, "figures: fig5 has no feasible range"); rng != nil {
		lo, _ := strconv.ParseFloat(string(rng[1]), 64)
		hi, _ := strconv.ParseFloat(string(rng[2]), 64)
		o.checkf(math.Abs(lo-paperRangeLo) <= rangeTol && math.Abs(hi-paperRangeHi) <= rangeTol,
			"figures: feasible range (%g, %g), paper (%g, %g)±%g", lo, hi, paperRangeLo, paperRangeHi, rangeTol)
	}

	fig9, err := readSeries(filepath.Join(dir, "fig9.csv"))
	o.checkf(err == nil, "figures: %v", err)
	q0, q1, q2 := fig9["Q=0 (basic setup)"], fig9["Q=0.01"], fig9["Q=0.1"]
	o.checkf(len(q0) > 0 && len(q0) == len(q1) && len(q1) == len(q2), "figures: fig9 series missing or ragged")
	sr2 := false
	for i := range q0 {
		if i >= len(q1) || i >= len(q2) {
			break
		}
		if math.Abs(q0[i].x-2) < 1e-9 {
			sr2 = true
			o.checkf(math.Abs(q0[i].y-paperSR2) <= sr2Tol, "figures: SR(2) = %g, paper %g±%g", q0[i].y, paperSR2, sr2Tol)
		}
		o.checkf(q1[i].y >= q0[i].y-monotoneSlack && q2[i].y >= q1[i].y-monotoneSlack,
			"figures: fig9 SR decreases in Q at P*=%g", q0[i].x)
	}
	o.checkf(sr2, "figures: fig9 has no SR(2) point")
	fig11, err := readSeries(filepath.Join(dir, "fig11.csv"))
	o.checkf(err == nil, "figures: %v", err)
	basic := fig11["basic setup"]
	o.checkf(len(basic) > 0 && len(fig11) == 3, "figures: fig11 series missing")
	for name, pts := range fig11 {
		if name == "basic setup" {
			continue
		}
		for i := range pts {
			o.checkf(i < len(basic) && pts[i].y >= basic[i].y-monotoneSlack,
				"figures: fig11 %q below basic SR at P*=%g", name, pts[i].x)
		}
	}

	srFiles, _ := filepath.Glob(filepath.Join(dir, "fig6-*.csv"))
	srFiles = append(srFiles, filepath.Join(dir, "fig9.csv"), filepath.Join(dir, "fig11.csv"))
	for _, f := range srFiles {
		series, err := readSeries(f)
		o.checkf(err == nil, "figures: %v", err)
		for name, pts := range series {
			for _, p := range pts {
				o.checkf(p.y >= 0 && p.y <= 1, "figures: %s %q SR %g outside [0,1]", filepath.Base(f), name, p.y)
			}
		}
	}
	return n
}

// sections splits cmd/figures output into artifact bodies by ID.
func sections(stdout []byte) map[string][]byte {
	out := map[string][]byte{}
	parts := bytes.Split(stdout, []byte("==== "))
	for _, p := range parts[1:] {
		id, body, _ := bytes.Cut(p, []byte(" ====\n"))
		out[string(id)] = body
	}
	return out
}

type point struct{ x, y float64 }

// readSeries reads one `series,x,y` CSV into points by series name.
func readSeries(path string) (map[string][]point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string][]point{}
	for i, row := range rows {
		if i == 0 {
			continue
		}
		if len(row) != 3 {
			return nil, fmt.Errorf("%s: row %d has %d fields", path, i, len(row))
		}
		x, err1 := strconv.ParseFloat(row[1], 64)
		y, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: row %d is not numeric", path, i)
		}
		out[row[0]] = append(out[row[0]], point{x, y})
	}
	return out, nil
}

var timingRE = regexp.MustCompile(`(?m)^\s+(\S+)\s+([0-9.]+)ms$`)

type groupTime struct {
	id string
	ms float64
}

// parseTimings reads the per-group wall times cmd/figures -timing prints,
// in registry order, and the generation total.
func parseTimings(stdout []byte) (groups []groupTime, total float64) {
	for _, m := range timingRE.FindAllSubmatch(stdout, -1) {
		v, _ := strconv.ParseFloat(string(m[2]), 64)
		if id := string(m[1]); id == "total" {
			total = v
		} else {
			groups = append(groups, groupTime{id, v})
		}
	}
	return groups, total
}

// msDur converts float milliseconds to a duration.
func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

type cacheStats struct{ hits, misses, evicted int64 }

var cacheRE = regexp.MustCompile(`solve cache: \d+/\d+ models \(hits (\d+), misses (\d+), bypassed \d+, evicted (\d+)\)`)

// parseCacheStats reads the solve-cache line a -cache-stats run prints.
func parseCacheStats(stdout []byte) cacheStats {
	m := cacheRE.FindSubmatch(stdout)
	if m == nil {
		return cacheStats{}
	}
	atoi := func(b []byte) int64 { v, _ := strconv.ParseInt(string(b), 10, 64); return v }
	return cacheStats{atoi(m[1]), atoi(m[2]), atoi(m[3])}
}

// probeContRange times core's continuation-range solve (the scan behind
// every Fig. 3–6 point) on fresh Table III models at seeded rates.
func probeContRange(e *env, o *outcome) error {
	rng := rand.New(rand.NewSource(e.seed))
	n := 40
	if e.mini {
		n = 8
	}
	for i := 0; i < n; i++ {
		m, err := core.New(utility.Default())
		if err != nil {
			return err
		}
		pstar := 1.5 + rng.Float64()
		sp := e.tr.start("core.cont_range_t2", int64(i), 0)
		_, _, err = m.ContRangeT2(pstar)
		sp.end()
		if err != nil {
			return err
		}
	}
	o.layer["core.cont_range_t2_us"] = median(e.tr.durations("core.cont_range_t2")) / 1e3
	return nil
}
