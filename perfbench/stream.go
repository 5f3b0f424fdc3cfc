package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/qmc"
	"repro/internal/rpc"
	"repro/internal/scenario"
	"repro/internal/swapsim"
)

const (
	// streamRuns is every stream's fixed path count.
	streamRuns = 20000
	// streamZ widens the final Wilson 95% interval (z = 1.96) before it
	// must contain the analytic SR.
	streamZ = 5.0
	wilsonZ = 1.96
)

// streamSamplers are the sampling modes the streams alternate between
// (antithetic is left out: it is slated for removal).
var streamSamplers = []string{"pseudo", "sobol"}

// wsMessage is any frame the stream receives: a swap.progress
// notification or the terminal response.
type wsMessage struct {
	Method string `json:"method"`
	Params *struct {
		Paths int `json:"paths"`
	} `json:"params"`
	Result *rpc.SimulateResult `json:"result"`
	Error  json.RawMessage     `json:"error"`
}

// runStream is the simulate-stream workload: swap.simulate streams over
// one WebSocket connection to the real swapd, one per preset × sampler in
// every round, each with a fixed run count and the default progress
// throttle.
func runStream(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	d, setups, err := launchSwapd(ctx, e)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	analytic, err := analyticSRs(ctx, newClient(d.addr, 1))
	if err != nil {
		return nil, err
	}
	o.checkf(math.Abs(analytic["tableIII"]-paperSR2) <= sr2Tol, "stream: tableIII analytic SR %g, paper %g±%g", analytic["tableIII"], paperSR2, sr2Tol)

	ws, err := rpc.DialWS("ws://"+d.addr+"/ws", 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer ws.Close()

	streamSeed := e.seed*104729 + 3
	e.noteSeed("stream.scenarios", streamSeed)
	rng := rand.New(rand.NewSource(streamSeed))
	presets := quotePresets
	if e.mini {
		presets = presets[:1]
	}
	var roundMeans, firsts, frames, tracedP, untracedP []float64
	var paths, frameBytes, frameCount float64
	var wallTotal time.Duration
	id := 0
	_, err = e.rounds(ctx, func(r int, tr *tracer) error {
		var roundWall time.Duration
		streams := 0
		for _, preset := range presets {
			for _, sampler := range streamSamplers {
				id++
				sc, err := scenario.Lookup(preset)
				if err != nil {
					return err
				}
				sc.Seed = rng.Int63()
				st, err := oneStream(ws, id, sc, sampler, analytic[preset], o, tr)
				o.attempted++
				if err != nil {
					return err
				}
				if st.failed {
					o.failed++
					continue
				}
				roundWall += st.wall
				streams++
				firsts = append(firsts, ms(st.first))
				frames = append(frames, float64(st.frames))
				frameCount += float64(st.frames)
				frameBytes += float64(st.bytes)
				paths += streamRuns
				wallTotal += st.wall
			}
		}
		// A round streams every preset in every sampler once, so its mean
		// weighs each configuration equally whatever the seed.
		if streams > 0 {
			mean := ms(roundWall) / float64(streams)
			roundMeans = append(roundMeans, mean)
			if e.traced && r%2 == 0 {
				tracedP = append(tracedP, mean)
			} else if e.traced {
				untracedP = append(untracedP, mean)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ws.Close()
	stopped = true
	use := d.stop()

	rate := paths / wallTotal.Seconds()
	o.e2e["setup_s"] = median(setups)
	o.e2e["max_rss_mb"] = use.rssMB
	o.e2e["primary_p50_ms"] = median(roundMeans)
	o.e2e["secondary_p50_ms"] = median(firsts)
	o.e2e["rate_per_s"] = rate
	o.reportf("stream_paths_per_s %.0f paths/s (%d streams of %d paths)", rate, len(firsts), streamRuns)
	o.reportf("stream_first_progress_ms %.4f ms (median)", median(firsts))
	o.reportf("stream_cpu_ns_per_path %.1f ns (swapd CPU time over all paths)", float64(use.cpu)/paths)
	if e.traced {
		o.layer["rpc.ws_frames_per_stream"] = median(frames)
		o.layer["rpc.ws_frame_bytes"] = frameBytes / frameCount
		if err := probeMC(e, o); err != nil {
			return nil, err
		}
		if !e.mini {
			o.layer["bench.trace_overhead_pct"] = overheadPct(tracedP, untracedP)
		}
	}
	return o, nil
}

// streamStat is one finished stream.
type streamStat struct {
	wall, first   time.Duration
	frames, bytes int
	failed        bool
}

// oneStream runs one swap.simulate stream to its terminal response and
// checks it: progress paths strictly increase (the throttle may leave the
// last partial stretch without a frame), the final path count is the
// requested one, and the final interval widened to streamZ contains
// the analytic SR (and, for tableIII, the paper's ≈0.71).
func oneStream(ws *rpc.WSConn, id int, sc scenario.Scenario, sampler string, analytic float64, o *outcome, tr *tracer) (streamStat, error) {
	inline, err := json.Marshal(sc)
	if err != nil {
		return streamStat{}, err
	}
	body := fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":"swap.simulate","params":{"scenario":%s,"runs":%d,"sampler":%q}}`,
		id, inline, streamRuns, sampler)
	var st streamStat
	start := time.Now()
	if err := ws.WriteMessage([]byte(body)); err != nil {
		return st, fmt.Errorf("sending swap.simulate: %w", err)
	}
	last := 0
	for {
		msg, err := ws.ReadMessage()
		if err != nil {
			return st, fmt.Errorf("reading stream %d: %w", id, err)
		}
		now := time.Now()
		st.frames++
		st.bytes += len(msg)
		var m wsMessage
		if err := json.Unmarshal(msg, &m); err != nil {
			return st, fmt.Errorf("stream %d: decoding frame: %w", id, err)
		}
		switch {
		case m.Method == "swap.progress" && m.Params != nil:
			if st.first == 0 {
				st.first = now.Sub(start)
			}
			o.checkf(m.Params.Paths > last, "stream %d: progress paths %d after %d", id, m.Params.Paths, last)
			last = m.Params.Paths
		case len(m.Error) > 0:
			st.failed = true
			st.wall = now.Sub(start)
			return st, nil
		case m.Result != nil:
			st.wall = now.Sub(start)
			res := m.Result
			o.checkf(st.first > 0, "stream %d: no progress frame before the result", id)
			o.checkf(res.Paths == streamRuns && last <= streamRuns, "stream %d: final paths %d (last progress %d), want %d", id, res.Paths, last, streamRuns)
			center, half := (res.Lo+res.Hi)/2, (res.Hi-res.Lo)/2*streamZ/wilsonZ
			o.checkf(math.Abs(analytic-center) <= half,
				"stream %d (%s, %s): SR %.4f [%.4f, %.4f] widened to z=%g misses analytic %.4f", id, sc.Name, sampler, res.SR, res.Lo, res.Hi, streamZ, analytic)
			if sc.Name == "tableIII" {
				o.checkf(math.Abs(paperSR2-center) <= half+sr2Tol, "stream %d: tableIII SR %.4f, paper %g", id, res.SR, paperSR2)
			}
			if tr != nil {
				root := tr.record("stream.request", int64(id), 0, start, now)
				engine := time.Duration(res.ElapsedUs) * time.Microsecond
				tr.record("rpc.stream_server", int64(id), root, now.Add(-engine), now)
			}
			return st, nil
		}
	}
}

// analyticSRs asks swapd for each preset's analytic basic SR.
func analyticSRs(ctx context.Context, c *client) (map[string]float64, error) {
	out := map[string]float64{}
	for i, preset := range quotePresets {
		body := fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":"swap.solve","params":{"scenario":%q,"variant":"basic"}}`, i+1, preset)
		data, err := c.post(ctx, []byte(body))
		if err != nil {
			return nil, err
		}
		var r solveReply
		var reports []rpc.ReportJSON
		if err := json.Unmarshal(data, &r); err != nil || r.Result == nil {
			return nil, fmt.Errorf("swap.solve %s: unexpected reply %.200s", preset, data)
		}
		if err := json.Unmarshal(r.Result.Variants, &reports); err != nil || len(reports) != 1 {
			return nil, fmt.Errorf("swap.solve %s: want one basic report", preset)
		}
		out[preset] = reports[0].SR
	}
	return out, nil
}

// probeMC times the Monte Carlo engine in-process on tableIII's solved
// strategy: paths per second in each sampler, per-path time through a
// swapsim Runner, and bytes allocated per path.
func probeMC(e *env, o *outcome) error {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		return err
	}
	m, err := core.New(sc.Params)
	if err != nil {
		return err
	}
	strat, err := m.Strategy(sc.PStar)
	if err != nil {
		return err
	}
	strat.AliceInitiates = true
	runs := streamRuns
	if e.mini {
		runs = 4000
	}
	cfg := swapsim.Config{Params: sc.Params, Strategy: strat, Seed: e.seed}
	for _, mode := range streamSamplers {
		cfg.Sampler = qmc.Mode(mode)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := e.tr.start("mc."+mode, 0, 0)
		res, err := swapsim.MonteCarlo(swapsim.MCConfig{Config: cfg, Runs: runs, Workers: 1})
		sp.end()
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		secs := float64(sp.End-sp.Start) / 1e9
		o.layer["mc."+mode+"_paths_per_s"] = float64(res.Paths) / secs
		if mode == "pseudo" {
			o.layer["mc.bytes_per_path"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Paths)
		}
	}
	cfg.Sampler = qmc.ModePseudo
	runner, err := swapsim.NewRunner(cfg)
	if err != nil {
		return err
	}
	n := runs / 4
	sp := e.tr.start("swapsim.paths", 0, 0)
	for i := 0; i < n; i++ {
		if _, err := runner.RunOutcome(e.seed + int64(i)); err != nil {
			return err
		}
	}
	sp.end()
	o.layer["swapsim.path_us"] = float64(sp.End-sp.Start) / 1e3 / float64(n)
	return nil
}
