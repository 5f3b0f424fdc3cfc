package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/scenario"
	"repro/internal/variant"
)

const (
	// quoteRate is the open loop's fixed operation rate, well below the
	// ~770 req/s the closed loop reaches on 2 CPUs, so nothing is shed.
	quoteRate = 150.0
	// quoteOpenOps and quoteClosedOps are the operations per round of the
	// open and the closed loop, whole multiples of quoteBlock.
	quoteOpenOps   = 600
	quoteClosedOps = 960
	// quoteHotKeys inline-scenario keys serve the hot operations (Zipf).
	quoteHotKeys = 8
	// quoteMCRuns is every request's Monte Carlo validation size.
	quoteMCRuns = 1000
	// quoteZ bounds |MC estimate − analytic SR| in binomial standard errors.
	quoteZ = 5.0
)

// quotePresets are the five preset models the keys reuse.
var quotePresets = []string{"tableIII", "high-vol", "low-vol", "fee-stress", "asymmetric-discount"}

const (
	kindHot = iota
	kindCold
	kindBurst
)

// quoteBlock is the make-up of every 20 consecutive operations, shuffled by
// the seed: half hot keys, one two-copy burst of a cold key, the rest
// unique cold keys. Fixed shares keep every round's work the same for any
// seed; the seed moves only the order, the hot key drawn and the MC seeds.
var quoteBlock = []int{
	kindHot, kindHot, kindHot, kindHot, kindHot, kindHot, kindHot, kindHot, kindHot, kindHot,
	kindBurst,
	kindCold, kindCold, kindCold, kindCold, kindCold, kindCold, kindCold, kindCold, kindCold,
}

// quoteReq is one swap.solve request and what became of it.
type quoteReq struct {
	kind   int
	key    string // preset/seed: equal keys are byte-identical params
	preset string
	body   []byte
	due    time.Time // open loop: when it was due to be sent
	sent   time.Time
	done   time.Time
	late   time.Duration // generator lateness at dispatch
	resp   []byte
	err    error
}

// quoteMix generates the seeded request stream.
type quoteMix struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	hotSeeds []int64
	pending  []int // rest of the current block
	cold     int   // cold keys so far: their presets go round-robin
	id       int
}

func newQuoteMix(seed int64) *quoteMix {
	rng := rand.New(rand.NewSource(seed))
	m := &quoteMix{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, quoteHotKeys-1)}
	for i := 0; i < quoteHotKeys; i++ {
		m.hotSeeds = append(m.hotSeeds, rng.Int63())
	}
	return m
}

// next returns one operation: one request, or two identical ones (a burst).
func (m *quoteMix) next() ([]*quoteReq, error) {
	if len(m.pending) == 0 {
		m.pending = append(m.pending, quoteBlock...)
		m.rng.Shuffle(len(m.pending), func(i, j int) { m.pending[i], m.pending[j] = m.pending[j], m.pending[i] })
	}
	kind := m.pending[0]
	m.pending = m.pending[1:]
	if kind == kindHot {
		k := int(m.zipf.Uint64())
		r, err := m.request(kindHot, quotePresets[k%len(quotePresets)], m.hotSeeds[k])
		return []*quoteReq{r}, err
	}
	preset, seed := quotePresets[m.cold%len(quotePresets)], m.rng.Int63()
	m.cold++
	a, err := m.request(kind, preset, seed)
	if err != nil || kind == kindCold {
		return []*quoteReq{a}, err
	}
	b, err := m.request(kind, preset, seed)
	return []*quoteReq{a, b}, err
}

func (m *quoteMix) request(kind int, preset string, seed int64) (*quoteReq, error) {
	sc, err := scenario.Lookup(preset)
	if err != nil {
		return nil, err
	}
	sc.Seed, sc.MCRuns, sc.Variants = seed, quoteMCRuns, []string{"basic"}
	inline, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	m.id++
	body := fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":"swap.solve","params":{"scenario":%s,"mc":true}}`, m.id, inline)
	return &quoteReq{kind: kind, key: fmt.Sprintf("%s/%d", preset, seed), preset: preset, body: []byte(body)}, nil
}

// client posts JSON-RPC bodies over at most nproc keep-alive connections.
type client struct {
	hc  *http.Client
	url string
}

func newClient(addr string, conns int) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		url: "http://" + addr + "/rpc",
	}
}

func (c *client) post(ctx context.Context, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// openLoop sends ops on a fixed schedule — operation i is due at
// start + i/rate, both copies of a burst at once — over conns connections,
// and times every request from its due time. The dispatcher records its
// own lateness (wake-up time minus due time) apart from the wait for a
// free connection.
func openLoop(ctx context.Context, c *client, ops [][]*quoteReq, rate float64, conns int) {
	n := 0
	for _, op := range ops {
		n += len(op)
	}
	queue := make(chan *quoteReq, n) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				q.sent = time.Now()
				q.resp, q.err = c.post(ctx, q.body)
				q.done = time.Now()
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	for i, op := range ops {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		for _, q := range op {
			q.due, q.late = due, now.Sub(due)
			queue <- q
		}
	}
	close(queue)
	wg.Wait()
}

// closedLoop sends every request back to back from conns clients and
// returns how long that took.
func closedLoop(ctx context.Context, c *client, reqs []*quoteReq, conns int) time.Duration {
	queue := make(chan *quoteReq, len(reqs)) // pre-filled work list
	for _, q := range reqs {
		queue <- q
	}
	close(queue)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				q.sent = time.Now()
				q.due = q.sent
				q.resp, q.err = c.post(ctx, q.body)
				q.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// solveReply is the part of a swap.solve response the checks read; a
// response without a result is an error response.
type solveReply struct {
	Result *struct {
		Variants  json.RawMessage `json:"variants"`
		Coalesced bool            `json:"coalesced"`
		Cached    bool            `json:"cached"`
		ElapsedUs int64           `json:"elapsedUs"`
	} `json:"result"`
}

// quoteChecker holds every response to the quote-mix properties.
type quoteChecker struct {
	o        *outcome
	variants map[string]json.RawMessage // key → first variants block
	presetSR map[string]float64         // preset → analytic SR
}

// check verifies one response and returns its decoded reply (nil when the
// request failed).
func (qc *quoteChecker) check(q *quoteReq) *solveReply {
	if q.err != nil {
		qc.o.failed++
		return nil
	}
	var r solveReply
	if err := json.Unmarshal(q.resp, &r); err != nil || r.Result == nil {
		qc.o.failed++
		return nil
	}
	if first, ok := qc.variants[q.key]; ok {
		qc.o.checkf(bytes.Equal(first, r.Result.Variants), "quote: %s variants block differs from its first response", q.key)
	} else {
		qc.variants[q.key] = r.Result.Variants
	}
	var reports []rpc.ReportJSON
	if err := json.Unmarshal(r.Result.Variants, &reports); err != nil || len(reports) != 1 || reports[0].MC == nil {
		qc.o.checkf(false, "quote: %s: want one basic report with MC validation", q.key)
		return &r
	}
	rep := reports[0]
	if sr, ok := qc.presetSR[q.preset]; ok {
		qc.o.checkf(rep.SR == sr, "quote: %s analytic SR %v differs from the preset's %v", q.key, rep.SR, sr)
	} else {
		qc.presetSR[q.preset] = rep.SR
		if q.preset == "tableIII" {
			qc.o.checkf(math.Abs(rep.SR-paperSR2) <= sr2Tol, "quote: tableIII SR %g, paper %g±%g", rep.SR, paperSR2, sr2Tol)
		}
	}
	n := float64(rep.MC.Runs)
	se := math.Sqrt((rep.SR*(1-rep.SR) + 1/n) / n)
	qc.o.checkf(rep.MC.Runs == quoteMCRuns && math.Abs(rep.MC.SR-rep.SR) <= quoteZ*se,
		"quote: %s MC %.4f over %d runs vs analytic %.4f (z bound %g)", q.key, rep.MC.SR, rep.MC.Runs, rep.SR, quoteZ)
	return &r
}

// runQuote is the quote-mix workload: the real swapd with default flags,
// driven over loopback HTTP on at most nproc connections. Each round is an
// open loop at quoteRate (cold and hot latency from due time) and then a
// closed loop (capacity).
func runQuote(ctx context.Context, e *env) (*outcome, error) {
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
	c := newClient(d.addr, e.nproc)
	mixSeed := e.seed*7919 + 1
	e.noteSeed("quote.mix", mixSeed)
	mix := newQuoteMix(mixSeed)
	openN, closedN := quoteOpenOps, quoteClosedOps
	if e.mini {
		openN, closedN = 160, 100
	}
	before, err := swapdStats(ctx, c)
	if err != nil {
		return nil, err
	}

	qc := &quoteChecker{o: o, variants: map[string]json.RawMessage{}, presetSR: map[string]float64{}}
	var cold, hot, late, tracedP, untracedP []float64
	var closedTime time.Duration
	var closedReqs int
	var serverCold, serverHot, transport []float64
	var bodies [][]byte
	_, err = e.rounds(ctx, func(r int, tr *tracer) error {
		var ops [][]*quoteReq
		for len(ops) < openN {
			op, err := mix.next()
			if err != nil {
				return err
			}
			ops = append(ops, op)
		}
		var closed []*quoteReq
		for i := 0; i < closedN; i++ {
			op, err := mix.next()
			if err != nil {
				return err
			}
			closed = append(closed, op...)
		}
		openLoop(ctx, c, ops, quoteRate, e.nproc)
		closedTime += closedLoop(ctx, c, closed, e.nproc)
		closedReqs += len(closed)

		for i, op := range ops {
			for _, q := range op {
				o.attempted++
				if r == 0 {
					bodies = append(bodies, q.body)
				}
				late = append(late, ms(q.late))
				rep := qc.check(q)
				if rep == nil {
					continue
				}
				lat := ms(q.done.Sub(q.due))
				switch {
				case q.kind == kindHot:
					hot = append(hot, lat)
					if rep.Result.Cached {
						serverHot = append(serverHot, float64(rep.Result.ElapsedUs))
						transport = append(transport, us(q.done.Sub(q.sent))-float64(rep.Result.ElapsedUs))
					}
				case q.kind == kindCold:
					cold = append(cold, lat)
					if e.traced && r%2 == 0 {
						tracedP = append(tracedP, lat)
					} else if e.traced {
						untracedP = append(untracedP, lat)
					}
					if !rep.Result.Cached && !rep.Result.Coalesced {
						serverCold = append(serverCold, float64(rep.Result.ElapsedUs))
					}
				}
				if tr != nil {
					opID := int64(r*100000 + i)
					root := tr.record("quote.request", opID, 0, q.due, q.done)
					tr.record("bench.conn_wait", opID, root, q.due, q.sent)
					call := tr.record("rpc.request", opID, root, q.sent, q.done)
					srv := time.Duration(rep.Result.ElapsedUs) * time.Microsecond
					tr.record("rpc.server", opID, call, q.done.Add(-srv), q.done)
				}
			}
		}
		for _, q := range closed {
			o.attempted++
			qc.check(q)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	after, err := swapdStats(ctx, c)
	if err != nil {
		return nil, err
	}
	stopped = true
	use := d.stop()

	o.e2e["setup_s"] = median(setups)
	o.e2e["max_rss_mb"] = use.rssMB
	o.e2e["primary_p50_ms"] = median(cold)
	o.e2e["secondary_p50_ms"] = median(hot)
	capacity := float64(closedReqs) / closedTime.Seconds()
	o.e2e["rate_per_s"] = capacity
	o.reportf("quote_cold_p50_ms %.4f ms (%d cold-key requests, open loop at %g operations/s, from due time)", median(cold), len(cold), quoteRate)
	if name, v, ok := highestTail(cold); ok {
		o.reportf("quote_cold_%s_ms %.4f ms", name, v)
	}
	o.reportf("quote_hot_p50_ms %.4f ms (%d hot-key requests)", median(hot), len(hot))
	if name, v, ok := highestTail(hot); ok {
		o.reportf("quote_hot_%s_ms %.4f ms", name, v)
	}
	o.reportf("quote_capacity_qps %.1f req/s (closed loop, %d clients, %d requests)", capacity, e.nproc, closedReqs)
	o.reportf("quote_cpu_us_per_request %.1f us (swapd CPU time over all %d requests)", us(use.cpu)/float64(o.attempted), o.attempted)

	if e.traced {
		o.layer["rpc.server_cold_p50_us"] = median(serverCold)
		o.layer["rpc.server_hot_p50_us"] = median(serverHot)
		o.layer["rpc.transport_p50_us"] = median(transport)
		o.layer["rpc.resp_cache_hits"] = float64(after.RespCache.Hits - before.RespCache.Hits)
		o.layer["rpc.resp_cache_misses"] = float64(after.RespCache.Misses - before.RespCache.Misses)
		o.layer["rpc.resp_cache_evictions"] = float64(after.RespCache.Evictions - before.RespCache.Evictions)
		o.layer["rpc.coalesce_waiters"] = float64(after.Coalescing.Waiters - before.Coalescing.Waiters)
		o.layer["rpc.admission_queued"] = float64(after.Admission.QueuedTotal - before.Admission.QueuedTotal)
		if name, v, ok := highestTail(late); ok {
			o.reportf("bench.generator_late_%s_ms %.4f ms", name, v)
		}
		o.layer["bench.generator_late_ms"] = maxOf(late)
		for i, b := range bodies {
			sp := e.tr.start("rpc.decode", int64(i), 0)
			_, rerr := rpc.ParseRequest(b)
			sp.end()
			if rerr != nil {
				return nil, fmt.Errorf("rpc.ParseRequest on a workload body: %v", rerr)
			}
		}
		o.layer["rpc.decode_us"] = median(e.tr.durations("rpc.decode")) / 1e3
		if err := probeCellMC(e, o); err != nil {
			return nil, err
		}
		if !e.mini {
			o.layer["bench.trace_overhead_pct"] = overheadPct(tracedP, untracedP)
		}
	}
	return o, nil
}

// statsReply is the part of swapd.stats the traced run reads.
type statsReply struct {
	RespCache struct {
		Hits, Misses, Evictions uint64
	} `json:"respCache"`
	Coalescing struct {
		Waiters uint64 `json:"waiters"`
	} `json:"coalescing"`
	Admission struct {
		QueuedTotal uint64 `json:"queuedTotal"`
	} `json:"admission"`
}

func swapdStats(ctx context.Context, c *client) (statsReply, error) {
	data, err := c.post(ctx, []byte(`{"jsonrpc":"2.0","id":0,"method":"swapd.stats"}`))
	if err != nil {
		return statsReply{}, fmt.Errorf("swapd.stats: %w", err)
	}
	var r struct {
		Result *statsReply `json:"result"`
	}
	if err := json.Unmarshal(data, &r); err != nil || r.Result == nil {
		return statsReply{}, fmt.Errorf("swapd.stats: unexpected reply %.200s", data)
	}
	return *r.Result, nil
}

// probeCellMC times one cold quote's work in-process: a basic variant
// cell with its quoteMCRuns-path validation, on tableIII at fresh seeds.
func probeCellMC(e *env, o *outcome) error {
	sc, err := scenario.Lookup("tableIII")
	if err != nil {
		return err
	}
	n := 20
	if e.mini {
		n = 4
	}
	for i := 0; i < n; i++ {
		sc.Seed, sc.MCRuns, sc.Variants = e.seed+int64(i), quoteMCRuns, []string{"basic"}
		sp := e.tr.start("variant.cell_mc", int64(i), 0)
		_, err := variant.Run(sc, variant.RunOpts{Variants: "basic", MCWorkers: 1})
		sp.end()
		if err != nil {
			return err
		}
	}
	o.layer["variant.cell_mc_us"] = median(e.tr.durations("variant.cell_mc")) / 1e3
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
