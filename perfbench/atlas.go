package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/atlas"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/variant"
)

const (
	// atlasSamples per ordered chain pair: 12 pairs × 44 = 528 distinct
	// parameter sets, past solvecache's default 512-model bound.
	atlasSamples = 44
	// atlasWarm is the number of warm re-sweeps per cold sweep.
	atlasWarm = 6
	// atlasCheckCells basic cells per run are re-estimated by the
	// benchmark's own two-step lognormal sampler, atlasCheckPaths paths
	// each, and must agree with the cell's SR within atlasZ standard errors.
	atlasCheckCells = 8
	atlasCheckPaths = 40000
	atlasZ          = 5.0
)

var atlasChains = []string{"btc", "ltc", "doge", "evm"}

// runAtlas is the atlas-sweep workload: a generated universe swept with
// -variant all, cold in a fresh process into an empty store (primary),
// then warm from that store (secondary), which must solve nothing and
// write byte-identical artifacts.
func runAtlas(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	bin := filepath.Join(e.bin, "scenarios")
	setups, err := cliSetup(ctx, e, bin, "-list")
	if err != nil {
		return nil, err
	}
	spec := config.UniverseSpec{Chains: atlasChains, Samples: atlasSamples, Seed: e.seed}
	warmN := atlasWarm
	if e.mini {
		spec.Samples, warmN = 8, 2
	}
	e.noteSeed("atlas.universe", spec.Seed)
	sweepArgs := []string{"atlas", "-chains", strings.Join(spec.Chains, ","),
		"-samples", strconv.Itoa(spec.Samples), "-seed", strconv.FormatInt(spec.Seed, 10), "-variant", "all"}

	var cold, warm, rates, rss, cpu, tracedP, untracedP []float64
	var cells int
	var cache cacheStats
	var coldStore, warmStore storeLine
	_, err = e.rounds(ctx, func(r int, tr *tracer) error {
		dir := filepath.Join(e.work, fmt.Sprintf("round-%d", r))
		st := filepath.Join(dir, "store")
		args := append(append([]string{}, sweepArgs...), "-store", st, "-out", filepath.Join(dir, "cold"))
		if tr != nil {
			args = append(args, "-cache-stats")
		}
		op := int64(r * (warmN + 1))
		sp := tr.start("atlas.cold_sweep", op, 0)
		res, err := runCLI(ctx, bin, args...)
		sp.end()
		o.attempted++
		if err != nil {
			return err
		}
		sum := parseAtlasSummary(res.stdout)
		coldStore = parseStoreLine(res.stdout)
		cells = sum.cells
		o.checkf(sum.cells > 0 && sum.solved == sum.cells && sum.loaded == 0,
			"atlas: cold sweep solved %d of %d cells (loaded %d)", sum.solved, sum.cells, sum.loaded)
		o.checkf(coldStore.puts == int64(sum.cells), "atlas: cold sweep stored %d of %d cells", coldStore.puts, sum.cells)
		cold = append(cold, ms(res.wall))
		rates = append(rates, float64(sum.cells)/res.wall.Seconds())
		rss = append(rss, res.rssMB)
		cpu = append(cpu, res.cpu.Seconds())
		if tr != nil {
			cache = parseCacheStats(res.stdout)
			tracedP = append(tracedP, ms(res.wall))
		} else if e.traced {
			untracedP = append(untracedP, ms(res.wall))
		}
		want, err := readArtifacts(filepath.Join(dir, "cold"))
		if err != nil {
			return err
		}
		if r == 0 {
			checkAtlasCells(o, e, spec, want["atlas_cells.json"])
		}

		for w := 0; w < warmN; w++ {
			out := filepath.Join(dir, fmt.Sprintf("warm-%d", w))
			args := append(append([]string{}, sweepArgs...), "-store", st, "-out", out)
			sp := tr.start("atlas.warm_sweep", op+int64(w)+1, 0)
			res, err := runCLI(ctx, bin, args...)
			sp.end()
			o.attempted++
			if err != nil {
				return err
			}
			sum := parseAtlasSummary(res.stdout)
			warmStore = parseStoreLine(res.stdout)
			o.checkf(sum.solved == 0 && sum.loaded == sum.cells && sum.cells == cells,
				"atlas: warm sweep solved %d, loaded %d of %d cells", sum.solved, sum.loaded, sum.cells)
			got, err := readArtifacts(out)
			if err != nil {
				return err
			}
			for name, data := range want {
				o.checkf(bytes.Equal(got[name], data), "atlas: warm %s differs from the cold sweep's", name)
			}
			warm = append(warm, ms(res.wall))
		}
		if tr != nil && r == 0 {
			if err := probeAtlasLayers(ctx, e, o, spec, st); err != nil {
				return err
			}
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}

	o.e2e["setup_s"] = median(setups)
	o.e2e["max_rss_mb"] = median(rss)
	o.e2e["primary_p50_ms"] = median(cold)
	o.e2e["secondary_p50_ms"] = median(warm)
	o.e2e["rate_per_s"] = median(rates)
	o.reportf("atlas_cold_cells_per_s %.1f cells/s (%d cells, median of %d cold sweeps)", median(rates), cells, len(cold))
	o.reportf("atlas_cold_cpu_s %.4f s (median CPU time of a cold sweep)", median(cpu))
	o.reportf("atlas_warm_cells_per_s %.1f cells/s (median of %d warm sweeps)", float64(cells)/median(warm)*1000, len(warm))
	if e.traced {
		o.layer["solvecache.model_hits"] = float64(cache.hits)
		o.layer["solvecache.model_misses"] = float64(cache.misses)
		o.layer["solvecache.evictions"] = float64(cache.evicted)
		o.layer["store.hits"] = float64(warmStore.hits)
		o.layer["store.misses"] = float64(coldStore.misses)
		o.layer["store.puts"] = float64(coldStore.puts)
		if !e.mini {
			o.layer["bench.trace_overhead_pct"] = overheadPct(tracedP, untracedP)
		}
	}
	return o, nil
}

type atlasSummary struct{ cells, solved, loaded int }

var summaryRE = regexp.MustCompile(`atlas: (\d+) cells over \d+ scenarios, solved (\d+), loaded (\d+)`)

func parseAtlasSummary(stdout []byte) atlasSummary {
	m := summaryRE.FindSubmatch(stdout)
	if m == nil {
		return atlasSummary{cells: -1}
	}
	a := func(b []byte) int { v, _ := strconv.Atoi(string(b)); return v }
	return atlasSummary{a(m[1]), a(m[2]), a(m[3])}
}

type storeLine struct{ hits, misses, puts int64 }

var storeRE = regexp.MustCompile(`store: (\d+) hits, (\d+) misses, \d+ corrupt, (\d+) puts`)

func parseStoreLine(stdout []byte) storeLine {
	m := storeRE.FindSubmatch(stdout)
	if m == nil {
		return storeLine{-1, -1, -1}
	}
	a := func(b []byte) int64 { v, _ := strconv.ParseInt(string(b), 10, 64); return v }
	return storeLine{a(m[1]), a(m[2]), a(m[3])}
}

// readArtifacts reads every file an atlas sweep wrote into dir.
func readArtifacts(dir string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, name := range []string{"atlas_cells.json", "atlas_frontier.txt"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("atlas artifacts: %w", err)
		}
		out[name] = data
	}
	return out, nil
}

// checkAtlasCells re-estimates a seeded sample of basic cells with the
// benchmark's own two-step lognormal sampler, fed the thresholds core
// publishes for each cell (B's t2 continuation region, A's t3 cut-off),
// and requires agreement with the cell's SR within atlasZ standard errors.
// It also requires every cell's SR to lie in [0, 1].
func checkAtlasCells(o *outcome, e *env, spec config.UniverseSpec, cellsJSON []byte) {
	var res struct {
		Cells []struct {
			Scenario string  `json:"scenario"`
			Variant  string  `json:"variant"`
			SR       float64 `json:"sr"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(cellsJSON, &res); err != nil {
		o.checkf(false, "atlas: decoding atlas_cells.json: %v", err)
		return
	}
	scs, err := spec.Generate()
	if err != nil {
		o.checkf(false, "atlas: generating the universe: %v", err)
		return
	}
	byName := map[string]scenario.Scenario{}
	for _, sc := range scs {
		byName[sc.Name] = sc
	}
	var basic []int
	for i, c := range res.Cells {
		o.checkf(c.SR >= 0 && c.SR <= 1, "atlas: %s/%s SR %g outside [0,1]", c.Scenario, c.Variant, c.SR)
		if c.Variant == "basic" {
			basic = append(basic, i)
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	rng.Shuffle(len(basic), func(i, j int) { basic[i], basic[j] = basic[j], basic[i] })
	n := min(atlasCheckCells, len(basic))
	o.checkf(n > 0, "atlas: no basic cells to check")
	for _, i := range basic[:n] {
		c := res.Cells[i]
		sc, ok := byName[c.Scenario]
		if !ok {
			o.checkf(false, "atlas: cell %s is not in the generated universe", c.Scenario)
			continue
		}
		est, se, err := independentSR(rng, sc)
		if err != nil {
			o.checkf(false, "atlas: %s: %v", c.Scenario, err)
			continue
		}
		o.checkf(math.Abs(est-c.SR) <= atlasZ*se,
			"atlas: %s SR %.4f, independent estimate %.4f ± %.4f (z bound %g)", c.Scenario, c.SR, est, se, atlasZ)
	}
}

// independentSR estimates a scenario's basic success rate with the
// benchmark's sampler from the thresholds core.Model.Strategy publishes.
func independentSR(rng *rand.Rand, sc scenario.Scenario) (est, se float64, err error) {
	m, err := core.New(sc.Params)
	if err != nil {
		return 0, 0, err
	}
	strat, err := m.Strategy(sc.PStar)
	if err != nil {
		return 0, 0, err
	}
	var bands []band
	for _, iv := range strat.BobContT2.Intervals() {
		bands = append(bands, band{iv.Lo, iv.Hi})
	}
	p := sc.Params
	law := newTwoStep(p.P0, p.Price.Mu, p.Price.Sigma, p.Chains.TauA, p.Chains.TauB)
	est, se = law.successMC(rng, bands, strat.AliceCutoffT3, atlasCheckPaths)
	return est, se, nil
}

// probeAtlasLayers times the public functions under the atlas sweep on
// this run's own universe and store: core's model build and solves,
// variant cells, store reads and writes of the swept entries, universe
// generation and artifact rendering.
func probeAtlasLayers(ctx context.Context, e *env, o *outcome, spec config.UniverseSpec, storeDir string) error {
	tr := e.tr
	for i := 0; i < 5; i++ {
		sp := tr.start("config.generate", int64(i), 0)
		_, err := spec.Generate()
		sp.end()
		if err != nil {
			return err
		}
	}
	o.layer["config.generate_ms"] = median(tr.durations("config.generate")) / 1e6

	scs, err := spec.Generate()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed + 1))
	rng.Shuffle(len(scs), func(i, j int) { scs[i], scs[j] = scs[j], scs[i] })
	k := min(24, len(scs))
	if e.mini {
		k = min(6, len(scs))
	}
	for i, sc := range scs[:k] {
		op := int64(i)
		sp := tr.start("core.model_build", op, 0)
		m, err := core.New(sc.Params)
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.start("core.success_rate", op, 0)
		_, err = m.SuccessRate(sc.PStar)
		sp.end()
		if err != nil {
			return err
		}
		fresh, err := core.New(sc.Params)
		if err != nil {
			return err
		}
		sp = tr.start("core.optimal_rate", op, 0)
		fresh.OptimalRate() // ErrNotViable is an answer here, not a failure
		sp.end()
		sc.Variants = []string{"basic"}
		sp = tr.start("variant.cell", op, 0)
		_, err = variant.Run(sc, variant.RunOpts{Variants: "basic", SkipMC: true})
		sp.end()
		if err != nil {
			return err
		}
	}
	o.layer["core.model_build_us"] = median(tr.durations("core.model_build")) / 1e3
	o.layer["core.success_rate_us"] = median(tr.durations("core.success_rate")) / 1e3
	o.layer["core.optimal_rate_us"] = median(tr.durations("core.optimal_rate")) / 1e3
	o.layer["variant.cell_us"] = median(tr.durations("variant.cell")) / 1e3

	// Store reads and writes of a seeded sample of the swept entries.
	var keys []string
	err = filepath.WalkDir(storeDir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			keys = append(keys, d.Name())
		}
		return err
	})
	if err != nil {
		return err
	}
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:min(300, len(keys))]
	src, err := store.Open(storeDir)
	if err != nil {
		return err
	}
	dst, err := store.Open(filepath.Join(e.work, "probe-store"))
	if err != nil {
		return err
	}
	var sizes []float64
	for i, key := range keys {
		sp := tr.start("store.get", int64(i), 0)
		payload, ok := src.Get(key)
		sp.end()
		if !ok {
			return fmt.Errorf("store probe: swept entry %s unreadable", key)
		}
		sizes = append(sizes, float64(len(payload)))
		sp = tr.start("store.put", int64(i), 0)
		err := dst.Put(key, payload)
		sp.end()
		if err != nil {
			return err
		}
	}
	o.layer["store.get_us"] = median(tr.durations("store.get")) / 1e3
	o.layer["store.put_us"] = median(tr.durations("store.put")) / 1e3
	o.layer["store.entry_bytes"] = median(sizes)

	// Artifact rendering of a warm in-process sweep over the same store.
	res, err := atlas.Run(ctx, atlas.Options{Spec: spec, Variants: "all", SkipMC: true, Store: src})
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		sp := tr.start("atlas.write_artifacts", int64(i), 0)
		err := res.WriteArtifacts(filepath.Join(e.work, "probe-artifacts"))
		sp.end()
		if err != nil {
			return err
		}
	}
	o.layer["atlas.write_artifacts_ms"] = median(tr.durations("atlas.write_artifacts")) / 1e6
	return nil
}
