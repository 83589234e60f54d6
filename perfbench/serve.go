package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"mighash/internal/circuits"
	"mighash/internal/db"
	"mighash/internal/engine"
	"mighash/internal/exp"
	"mighash/internal/mig"
	"mighash/internal/server"
)

// serve-cones sends BENCH-encoded output cones of the prepared circuits to
// an in-process server.New(server.Config{}) over loopback HTTP from a
// closed loop of two clients.
//
// Divisor and Sine are left out: together they have three cones within the
// size bound and cost 1.25 s of preparation.
var serveCircuits = []string{"Adder", "Log2", "Max", "Multiplier", "Square-root", "Square"}

const (
	serveClients = 2
	maxConeGates = 2000
	minConeGates = 8
	conesPerCirc = 32 // evenly spaced by output index, so Max's 130 alike cones do not dominate
	// maxXGates keeps resyn-x off the largest cones: one resyn-x request on
	// a 1661-gate Square cone took twice as long as any other request and
	// alone decided whether the p99 landed on it or on the Max cones below.
	maxXGates     = 1000
	minP99Samples = 100*minBeyond + 1
)

// cone is one distinct output cone.
type cone struct {
	spec  circuits.Spec
	out   int // output index in the circuit
	m     *mig.MIG
	bench string
}

// item is one distinct request: one cone on /v1/optimize, or several on
// /v1/optimize/batch.
type item struct {
	path   string
	script string
	verify bool
	cones  []int
	body   []byte
}

// serveInputs are the prepared cones and the distinct requests over them.
// They do not depend on the seed; the seed draws the request sequence.
type serveInputs struct {
	cones        []cone
	items        []item
	depthoptTime time.Duration
}

// prepareServe builds the circuits, prepares them, extracts and encodes
// the cones, and assigns each a request kind by its position in the fixed
// cone list: most run resyn, every eighth starting at the second runs
// quick, every eighth starting at the fourth runs resyn with verify_mode
// "sim", every eighth pair starting at the sixth travels as one batch
// request, and every sixteenth starting at the eighth runs resyn-x when it
// has at most maxXGates gates.
func prepareServe(timeDepthopt bool) (*serveInputs, error) {
	in := &serveInputs{}
	for _, name := range serveCircuits {
		spec, _ := circuits.ByName(name)
		var build time.Duration
		if timeDepthopt {
			t := time.Now()
			spec.Build()
			build = time.Since(t)
		}
		t := time.Now()
		m := exp.PrepareStart(spec)
		in.depthoptTime += time.Since(t) - build
		var eligible []cone
		seen := map[string]bool{}
		for o := 0; o < m.NumPOs(); o++ {
			c := engine.ExtractCone(m, o)
			if g := c.Size(); g < minConeGates || g > maxConeGates {
				continue
			}
			var b strings.Builder
			if err := c.WriteBENCH(&b); err != nil {
				return nil, err
			}
			if seen[b.String()] {
				continue
			}
			seen[b.String()] = true
			eligible = append(eligible, cone{spec: spec, out: o, m: c, bench: b.String()})
		}
		n := min(len(eligible), conesPerCirc)
		for k := 0; k < n; k++ {
			in.cones = append(in.cones, eligible[k*len(eligible)/n])
		}
	}
	for i := 0; i < len(in.cones); i++ {
		it := item{path: "/v1/optimize", script: "resyn", cones: []int{i}}
		switch {
		case i%16 == 7 && in.cones[i].m.Size() <= maxXGates:
			it.script = "resyn-x"
		case i%8 == 1:
			it.script = "quick"
		case i%8 == 3:
			it.verify = true
		case i%8 == 5 && i+1 < len(in.cones):
			it.path = "/v1/optimize/batch"
			it.cones = []int{i, i + 1}
			i++
		}
		in.items = append(in.items, it)
	}
	for i := range in.items {
		body, err := in.items[i].encode(in.cones)
		if err != nil {
			return nil, err
		}
		in.items[i].body = body
	}
	return in, nil
}

func (it *item) encode(cones []cone) ([]byte, error) {
	if it.path == "/v1/optimize" {
		req := server.OptimizeRequest{Name: "cone", Netlist: cones[it.cones[0]].bench}
		req.Script = it.script
		if it.verify {
			req.VerifyMode = "sim"
		}
		return json.Marshal(req)
	}
	req := server.BatchRequest{}
	req.Script = it.script
	for _, c := range it.cones {
		req.Jobs = append(req.Jobs, server.BatchJobRequest{Netlist: cones[c].bench})
	}
	return json.Marshal(req)
}

// reqRun is one HTTP round trip and what its response said.
type reqRun struct {
	item    int
	lat     time.Duration
	decode  time.Duration // client-side JSON decoding of the response
	id      string        // X-Request-ID
	err     error
	elapsed time.Duration // server-reported optimization time
	jobs    []jobResult
}

type jobResult struct {
	stats    engine.PipelineStats
	hash     uint64
	netlist  string // kept for warm-up responses only
	simClean bool
}

// instance is a running server on a loopback port with its client.
type instance struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startServer(cfg server.Config) (*instance, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{
		srv: srv,
		hs:  &http.Server{Handler: srv},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(in.done)
		// Serve returns http.ErrServerClosed once stop shuts it down; any
		// other failure shows up as failed requests.
		_ = in.hs.Serve(ln)
	}()
	return in, nil
}

// stop shuts the server down and waits for its serving goroutine.
func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := in.hs.Shutdown(ctx); err != nil {
		in.hs.Close()
	}
	<-in.done
	in.client.CloseIdleConnections()
	_ = in.srv.Close() // without Config.CacheFile there is nothing to snapshot
}

// do sends one request and decodes its response.
func (in *instance) do(items []item, i int, keepNetlist bool) reqRun {
	it := &items[i]
	r := reqRun{item: i}
	t := time.Now()
	resp, err := in.client.Post(in.url+it.path, "application/json", bytes.NewReader(it.body))
	if err != nil {
		r.err = err
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(t)
	r.id = resp.Header.Get("X-Request-ID")
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode/100 != 2 {
		r.err = fmt.Errorf("%s: status %d: %s", it.path, resp.StatusCode, bytes.TrimSpace(body))
		return r
	}
	t = time.Now()
	var results []server.OptimizeResponse
	if it.path == "/v1/optimize" {
		var one server.OptimizeResponse
		err = json.Unmarshal(body, &one)
		results = []server.OptimizeResponse{one}
		r.elapsed = one.Stats.Elapsed
	} else {
		var batch server.BatchResponse
		err = json.Unmarshal(body, &batch)
		results = batch.Results
		r.elapsed = batch.ElapsedNS
	}
	r.decode = time.Since(t)
	if err != nil {
		r.err = fmt.Errorf("%s: decoding response: %v", it.path, err)
		return r
	}
	if len(results) != len(it.cones) {
		r.err = fmt.Errorf("%s: %d results for %d jobs", it.path, len(results), len(it.cones))
		return r
	}
	for _, res := range results {
		if res.Error != "" {
			r.err = fmt.Errorf("%s: job error: %s", it.path, res.Error)
			return r
		}
		h := fnv.New64a()
		h.Write([]byte(res.Netlist))
		jr := jobResult{stats: res.Stats, hash: h.Sum64(), simClean: res.SimClean != nil && *res.SimClean}
		if keepNetlist {
			jr.netlist = res.Netlist
		}
		r.jobs = append(r.jobs, jr)
	}
	return r
}

// round sends every request of order once from a closed loop of
// serveClients clients and returns the runs in order with the wall time.
func (in *instance) round(items []item, order []int, keepNetlist bool) ([]reqRun, time.Duration) {
	runs := make([]reqRun, len(order))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(order) {
					return
				}
				runs[k] = in.do(items, order[k], keepNetlist)
			}
		}()
	}
	wg.Wait()
	return runs, time.Since(start)
}

// servePass is one measured pass: a fresh server, the warm-up that sends
// every distinct request once, then timed rounds that each send every
// distinct request once in a seeded order.
type servePass struct {
	warmup     []reqRun   // by item
	setupWarm  [][]reqRun // warm-ups of the earlier set-up repetitions, by item
	warmupTime time.Duration
	rounds     [][]reqRun
	roundTimes []time.Duration
	wall       time.Duration
	cpu        time.Duration
	mem        runtime.MemStats
}

func (sp *servePass) requests() int {
	n := 0
	for _, r := range sp.rounds {
		n += len(r)
	}
	return n
}

// startAndWarm starts a server and sends the warm-up: every distinct
// request once, in item order. The order is not drawn by the seed because
// it decides which resyn-x requests learn their 5-input classes side by
// side, and so the warm-up's wall time.
func startAndWarm(cfg server.Config, in *serveInputs) (*instance, []reqRun, time.Duration, error) {
	inst, err := startServer(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	order := make([]int, len(in.items))
	for i := range order {
		order[i] = i
	}
	runs, wall := inst.round(in.items, order, true)
	return inst, runs, wall, nil
}

// runServeRounds runs timed rounds on a warmed server: rounds of them when
// rounds > 0, else until seconds have passed and the p99 has enough
// samples.
func runServeRounds(inst *instance, in *serveInputs, rng *rand.Rand, seconds float64, rounds int, sp *servePass) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	for {
		n := len(sp.rounds)
		if rounds > 0 && n >= rounds {
			break
		}
		if rounds <= 0 && sp.requests() >= minP99Samples && time.Since(start).Seconds() >= seconds {
			break
		}
		runs, wall := inst.round(in.items, rng.Perm(len(in.items)), false)
		sp.rounds = append(sp.rounds, runs)
		sp.roundTimes = append(sp.roundTimes, wall)
	}
	sp.wall = time.Since(start)
	sp.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&sp.mem)
	sp.mem.TotalAlloc -= before.TotalAlloc
	sp.mem.NumGC -= before.NumGC
}

// verify checks a pass: every request must succeed, every warm-up result
// must match its circuit's model when parsed back from BENCH, every
// verify_mode "sim" result must come back sim-clean, and every other
// response must repeat the warm-up's netlist.
func (sp *servePass) verify(in *serveInputs, seed int64, errs *[]string) (attempted, failed int) {
	bad := func(format string, args ...any) {
		failed++
		*errs = append(*errs, fmt.Sprintf(format, args...))
	}
	vecs := map[string]*modelVectors{}
	for i, r := range sp.warmup {
		attempted++
		if r.err != nil {
			bad("warm-up item %d: %v", i, r.err)
			continue
		}
		it := in.items[i]
		for j, jr := range r.jobs {
			c := in.cones[it.cones[j]]
			if vecs[c.spec.Name] == nil {
				vecs[c.spec.Name] = newModelVectors(c.spec, seed^0x5eed)
			}
			m, err := mig.ReadBENCH(strings.NewReader(jr.netlist))
			if err == nil {
				err = vecs[c.spec.Name].check(m, nil, []int{c.out})
			}
			if err != nil {
				bad("item %d (%s output %d): %v", i, c.spec.Name, c.out, err)
			} else if it.verify && !jr.simClean {
				bad("item %d: verify_mode sim did not report sim_clean", i)
			}
		}
	}
	for _, runs := range append(sp.setupWarm, sp.rounds...) {
		for _, r := range runs {
			attempted++
			if r.err != nil {
				bad("item %d: %v", r.item, r.err)
				continue
			}
			w := sp.warmup[r.item]
			same := w.err == nil && len(w.jobs) == len(r.jobs)
			for j := 0; same && j < len(r.jobs); j++ {
				same = r.jobs[j].hash == w.jobs[j].hash
			}
			if !same {
				bad("item %d: response differs from the warm-up's", r.item)
			}
		}
	}
	return attempted, failed
}

// qor sums optimized size and depth over the distinct jobs.
func (sp *servePass) qor() (gates, depth int) {
	for _, r := range sp.warmup {
		for _, j := range r.jobs {
			gates += j.stats.SizeAfter
			depth += j.stats.DepthAfter
		}
	}
	return gates, depth
}

func (sp *servePass) latencies() []float64 {
	var xs []float64
	for _, runs := range sp.rounds {
		for _, r := range runs {
			xs = append(xs, millis(r.lat))
		}
	}
	return xs
}

func runServe(cfg config) (*outcome, error) {
	if _, err := db.Load(); err != nil {
		return nil, err
	}
	load := time.Since(processStart)
	// Set-up, repeated: input preparation, server start and the warm-up
	// against the fresh server. The last repetition's server is measured.
	var (
		in      *serveInputs
		inst    *instance
		base    servePass
		setups  []float64
		warmups []float64
		prepDO  time.Duration
	)
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			inst.stop()
			base.setupWarm = append(base.setupWarm, base.warmup)
		}
		t := time.Now()
		var err error
		in, err = prepareServe(cfg.Trace && rep == 0)
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			prepDO = in.depthoptTime
		}
		inst, base.warmup, base.warmupTime, err = startAndWarm(server.Config{}, in)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (load + time.Since(t)).Seconds())
		warmups = append(warmups, base.warmupTime.Seconds())
	}
	runServeRounds(inst, in, rand.New(rand.NewSource(cfg.Seed)), cfg.Seconds, 0, &base)
	inst.stop()
	var errs []string
	attempted, failed := base.verify(in, cfg.Seed, &errs)
	ms := newMetricSet()
	if !cfg.Trace {
		lat := base.latencies()
		p50, err := percentile(lat, 0.5)
		if err != nil {
			return nil, fmt.Errorf("latency_p50_ms: %w", err)
		}
		p99, err := percentile(lat, 0.99)
		if err != nil {
			return nil, fmt.Errorf("latency_p99_ms: %w", err)
		}
		gates, depth := base.qor()
		rounds := durations(base.roundTimes, time.Second)
		n := fmt.Sprintf("%d timed rounds of %d requests", len(rounds), len(in.items))
		ms.set("setup_s", "s", median(setups), fmt.Sprintf("(median of %d set-ups)", len(setups)))
		ms.set("cold_s", "s", median(warmups), fmt.Sprintf("(warm-up, median of %d)", len(warmups)))
		ms.set("suite_s", "s", median(rounds), "(median of "+n+")")
		ms.set("req_per_s", "1/s", float64(base.requests())/base.wall.Seconds(), "("+n+")")
		ms.set("latency_p50_ms", "ms", p50, fmt.Sprintf("(p50 of %d requests)", len(lat)))
		ms.set("latency_p99_ms", "ms", p99, fmt.Sprintf("(p99 of %d requests)", len(lat)))
		ms.set("gates_out", "gates", float64(gates), fmt.Sprintf("(%d distinct requests)", len(in.items)))
		ms.set("depth_out", "levels", float64(depth), fmt.Sprintf("(%d distinct requests)", len(in.items)))
		ms.set("peak_rss_mb", "MiB", peakRSSMiB(), "(VmHWM)")
	} else {
		traced, err := runTracedServe(cfg, in, len(base.rounds))
		if err != nil {
			return nil, err
		}
		a, f := traced.pass.verify(in, cfg.Seed, &errs)
		attempted, failed = attempted+a, failed+f
		g0, d0 := base.qor()
		g1, d1 := traced.pass.qor()
		fmt.Printf("gates_out %d depth_out %d untraced, %d %d traced\n", g0, d0, g1, d1)
		if g0 != g1 || d0 != d1 {
			failed++
			errs = append(errs, "traced run changed gates_out or depth_out")
		}
		if err := serveLayers(ms, in, &base, traced, prepDO); err != nil {
			return nil, err
		}
	}
	for _, e := range errs {
		fmt.Println("CHECK FAILED:", e)
	}
	return &outcome{metrics: ms, attempted: attempted, failed: failed}, nil
}

// tracedServe is the traced pass with the spans read back from the
// server's per-request trace files.
type tracedServe struct {
	pass  servePass
	files map[string][]traceEvent // by request ID
}

type traceEvent struct {
	Name string         `json:"name"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// runTracedServe repeats the measured pass, with the same seed and round
// count, against a fresh server writing one trace file per request.
func runTracedServe(cfg config, in *serveInputs, rounds int) (*tracedServe, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "traces-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ts := &tracedServe{files: map[string][]traceEvent{}}
	inst, warm, wall, err := startAndWarm(server.Config{TraceDir: dir}, in)
	if err != nil {
		return nil, err
	}
	ts.pass.warmup, ts.pass.warmupTime = warm, wall
	runServeRounds(inst, in, rand.New(rand.NewSource(cfg.Seed)), cfg.Seconds, rounds, &ts.pass)
	inst.stop()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || strings.HasPrefix(id, ".") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var f struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("trace file %s: %w", e.Name(), err)
		}
		ts.files[id] = f.TraceEvents
	}
	return ts, nil
}

// eventSelf is the self time of the rewrite-phase event ev: its duration
// minus the ladders inside it (the only spans that nest under a phase).
func eventSelf(ev traceEvent, events []traceEvent) float64 {
	self := ev.Dur
	for _, x := range events {
		if x.Name == "exact5.ladder" && x.TS >= ev.TS && x.TS+x.Dur <= ev.TS+ev.Dur {
			self -= x.Dur
		}
	}
	return self
}

// serveLayers derives the per-layer metrics of serve-cones: timings of
// public calls and response stats from the untraced pass, span-derived
// values from the traced pass's trace files, and replays of the cut, npn,
// db, mig and sim layers on the distinct request and response netlists.
func serveLayers(ms *metricSet, in *serveInputs, base *servePass, ts *tracedServe, prepDepthopt time.Duration) error {
	l := newLayerValues()
	jobMS := map[string][]float64{}
	var overhead, client []float64
	rounds := make([][]engine.PipelineStats, len(base.rounds))
	for r, runs := range base.rounds {
		for _, run := range runs {
			if it := in.items[run.item]; len(it.cones) == 1 {
				name := in.cones[it.cones[0]].spec.Name
				jobMS[name] = append(jobMS[name], millis(run.jobs[0].stats.Elapsed))
			}
			for _, j := range run.jobs {
				rounds[r] = append(rounds[r], j.stats)
			}
			overhead = append(overhead, millis(run.lat-run.elapsed))
			client = append(client, millis(run.decode))
		}
	}
	for name, xs := range jobMS {
		if err := l.setP50("engine.job_ms."+name, xs, "requests"); err != nil {
			return err
		}
	}
	l.setPassLayers(rounds)
	l.set("depthopt.prep_ms", millis(prepDepthopt), "(1 preparation)")
	if err := l.setP50("server.overhead_ms", overhead, "untraced requests"); err != nil {
		return err
	}
	if err := l.setP50("loadgen.client_ms", client, "responses"); err != nil {
		return err
	}
	l.set("loadgen.requests", float64(base.requests()), "(timed section)")
	if err := l.setServeSpanLayers(ts); err != nil {
		return err
	}
	if err := l.setCodecLayers(in, base); err != nil {
		return err
	}
	l.setRuntimeLayers(base.mem, base.cpu, len(base.rounds))
	l.set("trace.suite_s_delta",
		median(durations(ts.pass.roundTimes, time.Second))-median(durations(base.roundTimes, time.Second)),
		"(traced minus untraced suite_s, "+itoa(len(base.rounds))+" rounds each)")
	l.set("trace.req_per_s_delta",
		float64(ts.pass.requests())/ts.pass.wall.Seconds()-float64(base.requests())/base.wall.Seconds(),
		"(traced minus untraced req_per_s)")
	l.emit(ms)
	return nil
}

// setServeSpanLayers reads the traced pass's trace files: rewrite-phase
// self time per timed round, request-phase p50s over the timed requests,
// and the ladders of the whole pass (the warm-up runs them).
func (l *layerValues) setServeSpanLayers(ts *tracedServe) error {
	phaseRounds := make([]map[string]time.Duration, len(ts.pass.rounds))
	phases := map[string][]float64{}
	var ladders []ladder
	for _, r := range ts.pass.warmup {
		ladders = appendLadders(ladders, ts.files[r.id])
	}
	for k, runs := range ts.pass.rounds {
		phaseRounds[k] = map[string]time.Duration{}
		for _, run := range runs {
			events, ok := ts.files[run.id]
			if !ok {
				return fmt.Errorf("no trace file for request %q", run.id)
			}
			ladders = appendLadders(ladders, events)
			for _, ev := range events {
				switch ev.Name {
				case "parse", "queue-wait", "optimize", "encode", "verify":
					phases[ev.Name] = append(phases[ev.Name], ev.Dur/1000)
				case "rewrite.evaluate", "rewrite.extract", "rewrite.commit":
					phaseRounds[k][ev.Name] += time.Duration(eventSelf(ev, events) * float64(time.Microsecond))
				}
			}
		}
	}
	l.setPhaseLayers(phaseRounds)
	if err := l.setLadderLayers(ladders); err != nil {
		return err
	}
	for _, span := range []string{"parse", "queue-wait", "optimize", "encode", "verify"} {
		name := "server." + strings.ReplaceAll(span, "-", "_") + "_ms"
		if err := l.setP50(name, phases[span], "spans"); err != nil {
			return err
		}
	}
	return nil
}

// setCodecLayers replays, outside the timed section, the BENCH codec on
// the distinct request netlists, sim refutation on the (request, response)
// pairs, and the cut, npn and db layers on the request graphs.
func (l *layerValues) setCodecLayers(in *serveInputs, base *servePass) error {
	var inputs []passInput
	var kgates float64
	var read, write, refute time.Duration
	for i, r := range base.warmup {
		for j, c := range in.items[i].cones {
			cn := in.cones[c]
			inputs = append(inputs, passInput{"TF", cn.m})
			t := time.Now()
			m, err := mig.ReadBENCH(strings.NewReader(cn.bench))
			read += time.Since(t)
			if err != nil {
				return err
			}
			t = time.Now()
			if err := m.WriteBENCH(io.Discard); err != nil {
				return err
			}
			write += time.Since(t)
			kgates += float64(m.NumGates()) / 1000
			out, err := mig.ReadBENCH(strings.NewReader(r.jobs[j].netlist))
			if err != nil {
				return err
			}
			t = time.Now()
			eq, _, _, err := mig.EquivalentOpt(m, out, mig.EquivOptions{NoSAT: true})
			refute += time.Since(t)
			if err != nil || !eq {
				return fmt.Errorf("sim refutation of item %d: equal=%v err=%v", i, eq, err)
			}
		}
	}
	l.replayLayers(inputs, db.MustLoad(), nil)
	note := "(" + itoa(len(inputs)) + " netlists)"
	l.set("mig.read_bench_us_per_kgate", float64(read.Microseconds())/kgates, note)
	l.set("mig.write_bench_us_per_kgate", float64(write.Microseconds())/kgates, note)
	l.set("sim.refute_us_per_kgate", float64(refute.Microseconds())/kgates, note)
	return nil
}

func appendLadders(ls []ladder, events []traceEvent) []ladder {
	for _, ev := range events {
		if ev.Name != "exact5.ladder" {
			continue
		}
		c, _ := ev.Args["conflicts"].(float64)
		o, _ := ev.Args["outcome"].(string)
		ls = append(ls, ladder{time.Duration(ev.Dur * float64(time.Microsecond)), int64(c), o == "learned"})
	}
	return ls
}
