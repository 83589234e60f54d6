package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mighash/internal/circuits"
	"mighash/internal/cut"
	"mighash/internal/db"
	"mighash/internal/engine"
	"mighash/internal/npn"
	"mighash/internal/obs"
	"mighash/internal/tt"
)

// layerMetric names one per-layer metric. Every workload prints every one;
// a layer the workload never enters reports 0.
type layerMetric struct{ name, unit string }

// rewritePasses are the rewrite passes whose time is reported by name.
var rewritePasses = []string{"TF", "TFD", "BF", "TFx", "TF5x"}

func layerMetrics() []layerMetric {
	ls := []layerMetric{{"engine.iterations", "count"}, {"engine.passes", "count"}}
	for _, s := range circuits.All() {
		ls = append(ls, layerMetric{"engine.job_ms." + s.Name, "ms"})
	}
	for _, p := range rewritePasses {
		ls = append(ls, layerMetric{"rewrite." + p + "_ms", "ms"})
	}
	return append(ls, []layerMetric{
		{"rewrite.evaluate_ms", "ms"}, {"rewrite.extract_ms", "ms"}, {"rewrite.commit_ms", "ms"},
		{"rewrite.replacements", "count"}, {"rewrite.cache_hit_ratio", "ratio"},
		{"rewrite.choices", "count"}, {"rewrite.extract_saved", "gates"},
		{"rewrite.twin_win_ratio", "ratio"},
		{"depthopt.ms", "ms"}, {"depthopt.passes", "count"}, {"depthopt.prep_ms", "ms"},
		{"cut.enum4_ms", "ms"}, {"cut.enum5_ms", "ms"}, {"cut.cuts", "count"},
		{"npn.canon4_ns", "ns"}, {"npn.canon5_ns", "ns"},
		{"db.lookup_ns", "ns"}, {"db.exact5_lookup_ns", "ns"},
		{"exact.ladders", "count"}, {"exact.ladder_ms", "ms"}, {"exact.ladder_p50_ms", "ms"},
		{"exact.conflicts", "count"}, {"exact.learned_ratio", "ratio"},
		{"server.parse_ms", "ms"}, {"server.queue_wait_ms", "ms"}, {"server.optimize_ms", "ms"},
		{"server.encode_ms", "ms"}, {"server.verify_ms", "ms"}, {"server.overhead_ms", "ms"},
		{"mig.read_bench_us_per_kgate", "us/kgate"}, {"mig.write_bench_us_per_kgate", "us/kgate"},
		{"sim.refute_us_per_kgate", "us/kgate"},
		{"go.alloc_mb", "MiB"}, {"go.gc_cycles", "count"}, {"go.cpu_s", "s"},
		{"loadgen.requests", "count"}, {"loadgen.client_ms", "ms"},
		{"trace.suite_s_delta", "s"}, {"trace.req_per_s_delta", "1/s"},
	}...)
}

// layerValues accumulates per-layer values with their sample notes.
type layerValues struct {
	v     map[string]float64
	notes map[string]string
}

func newLayerValues() *layerValues {
	return &layerValues{v: map[string]float64{}, notes: map[string]string{}}
}

func (l *layerValues) set(name string, v float64, note string) {
	l.v[name] = v
	l.notes[name] = note
}

// setP50 records the guarded p50 of xs, samples of what.
func (l *layerValues) setP50(name string, xs []float64, what string) error {
	v, err := layerP50(xs)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.set(name, v, "(p50 of "+itoa(len(xs))+" "+what+")")
	return nil
}

// emit prints every per-layer metric, 0 where the layer is absent.
func (l *layerValues) emit(ms *metricSet) {
	for _, m := range layerMetrics() {
		note, ok := l.notes[m.name]
		if !ok {
			note = "(0 samples: the workload does not run this layer)"
		}
		ms.set(m.name, m.unit, l.v[m.name], note)
	}
}

// passRound aggregates the PassStats of one round of pipeline runs.
type passRound struct {
	passMS                     map[string]float64 // elapsed per pass name
	iterations, passes         int
	replacements, hits, misses int
	choices, saved             int
	extractPasses, twinWins    int
	depthoptMS, depthoptPasses float64
}

func aggregatePasses(stats []engine.PipelineStats) passRound {
	r := passRound{passMS: map[string]float64{}}
	for _, st := range stats {
		r.iterations += st.Iterations
		r.passes += len(st.Passes)
		for _, ps := range st.Passes {
			r.passMS[ps.Name] += millis(ps.Elapsed)
			if ps.Name == "depthopt" {
				r.depthoptMS += millis(ps.Elapsed)
				r.depthoptPasses += float64(ps.Replacements)
				continue
			}
			r.replacements += ps.Replacements
			r.hits += ps.CacheHits
			r.misses += ps.CacheMisses
			r.choices += ps.Choices
			r.saved += ps.ExtractSaved
			if strings.HasSuffix(ps.Name, "x") || strings.HasSuffix(ps.Name, "xd") {
				r.extractPasses++
				if ps.ExtractSaved == 0 {
					r.twinWins++
				}
			}
		}
	}
	return r
}

// setPassLayers records the engine, rewrite and depthopt metrics of the
// rounds (each a set of pipeline runs), as medians over rounds for times.
func (l *layerValues) setPassLayers(rounds [][]engine.PipelineStats) {
	aggs := make([]passRound, len(rounds))
	for i, r := range rounds {
		aggs[i] = aggregatePasses(r)
	}
	med := func(f func(passRound) float64) float64 {
		xs := make([]float64, len(aggs))
		for i, a := range aggs {
			xs[i] = f(a)
		}
		return median(xs)
	}
	note := "(median of " + itoa(len(rounds)) + " rounds)"
	for _, p := range rewritePasses {
		l.set("rewrite."+p+"_ms", med(func(a passRound) float64 { return a.passMS[p] }), note)
	}
	l.set("depthopt.ms", med(func(a passRound) float64 { return a.depthoptMS }), note)
	a := aggs[0] // counts repeat exactly in every round
	l.set("engine.iterations", float64(a.iterations), "(per round)")
	l.set("engine.passes", float64(a.passes), "(per round)")
	l.set("depthopt.passes", a.depthoptPasses, "(per round)")
	l.set("rewrite.replacements", float64(a.replacements), "(per round)")
	if a.hits+a.misses > 0 {
		l.set("rewrite.cache_hit_ratio", float64(a.hits)/float64(a.hits+a.misses),
			"(of "+itoa(a.hits+a.misses)+" lookups per round)")
	}
	l.set("rewrite.choices", float64(a.choices), "(per round)")
	l.set("rewrite.extract_saved", float64(a.saved), "(per round)")
	if a.extractPasses > 0 {
		l.set("rewrite.twin_win_ratio", float64(a.twinWins)/float64(a.extractPasses),
			"(of "+itoa(a.extractPasses)+" extraction passes per round)")
	}
}

// selfTimes sums, per span name, the self time of the spans: each span's
// duration minus the part of it its child spans cover.
func selfTimes(spans []*obs.Span) map[string]time.Duration {
	children := map[uint64][]*obs.Span{}
	for _, s := range spans {
		children[s.Parent()] = append(children[s.Parent()], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name()] += s.Duration() - covered(children[s.ID()])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []*obs.Span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, len(spans))
	for i, s := range spans {
		ivs[i] = iv{s.StartTime(), s.StartTime().Add(s.Duration())}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var end time.Time
	for _, x := range ivs {
		if x.a.After(end) {
			end = x.a
		}
		if x.b.After(end) {
			total += x.b.Sub(end)
			end = x.b
		}
	}
	return total
}

// setPhaseLayers records the rewrite phases' self time, median over rounds.
func (l *layerValues) setPhaseLayers(rounds []map[string]time.Duration) {
	for _, ph := range []string{"evaluate", "extract", "commit"} {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = millis(r["rewrite."+ph])
		}
		l.set("rewrite."+ph+"_ms", median(xs), "(self time, median of "+itoa(len(rounds))+" traced rounds)")
	}
}

// ladder is one exact5.ladder span.
type ladder struct {
	dur       time.Duration
	conflicts int64
	learned   bool
}

func (l *layerValues) setLadderLayers(ls []ladder) error {
	var total time.Duration
	var conflicts int64
	learned := 0
	durs := make([]float64, len(ls))
	for i, x := range ls {
		total += x.dur
		conflicts += x.conflicts
		if x.learned {
			learned++
		}
		durs[i] = millis(x.dur)
	}
	if err := l.setP50("exact.ladder_p50_ms", durs, "ladders"); err != nil {
		return err
	}
	n := "(" + itoa(len(ls)) + " ladders)"
	l.set("exact.ladders", float64(len(ls)), n)
	l.set("exact.ladder_ms", millis(total), n)
	l.set("exact.conflicts", float64(conflicts), n)
	if len(ls) > 0 {
		l.set("exact.learned_ratio", float64(learned)/float64(len(ls)), n)
	}
	return nil
}

// replayCalls bounds the canonization and lookup calls timed per cut
// width; the calls are a stride sample of all enumerated cuts. Uncached
// 5-input canonization costs about 0.1 ms a call, hence the smaller sample.
var replayCalls = [6]int{4: 200_000, 5: 20_000}

// replayLayers re-runs the cut, npn and db layers outside the timed
// section on the pass inputs: cut.Enumerate on every input, then
// npn.Canonize, (*DB).LookupCached (fresh cache), npn.Canonize5 and the
// warm (*OnDemand).Lookup over a sample of the cuts' truth tables. store
// is nil when the workload has no K = 5 pass; its lookups run under a
// cancelled context so a class the rewrite never asked for cannot start a
// ladder.
func (l *layerValues) replayLayers(inputs []passInput, d *db.DB, store *db.OnDemand) {
	var enum [6]time.Duration
	var graphs [6]int
	cuts := 0
	var tts4, tts5 []uint32
	for _, in := range inputs {
		k := 4
		if strings.Contains(in.pass, "5") {
			k = 5
		}
		t := time.Now()
		sets := cut.Enumerate(in.m, cut.Options{K: k})
		enum[k] += time.Since(t)
		graphs[k]++
		for _, set := range sets {
			for i := range set {
				c := &set[i]
				if c.N < 2 {
					continue
				}
				cuts++
				if c.N == 5 {
					tts5 = append(tts5, c.TT)
				} else {
					tts4 = append(tts4, c.TT)
				}
			}
		}
	}
	tts4, tts5 = stride(tts4, replayCalls[4]), stride(tts5, replayCalls[5])
	for _, k := range []int{4, 5} {
		if graphs[k] > 0 {
			l.set("cut.enum"+itoa(k)+"_ms", millis(enum[k]), "(per round, "+itoa(graphs[k])+" pass inputs)")
		}
	}
	l.set("cut.cuts", float64(cuts), "(per round)")
	perCall := func(n int, f func(i int)) float64 {
		if n == 0 {
			return 0
		}
		t := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		return float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	note4 := "(" + itoa(len(tts4)) + " calls)"
	l.set("npn.canon4_ns", perCall(len(tts4), func(i int) {
		npn.Canonize(tt.TT{Bits: uint64(uint16(tts4[i])), N: 4})
	}), note4)
	cache := db.NewCache()
	l.set("db.lookup_ns", perCall(len(tts4), func(i int) {
		d.LookupCached(tt.TT{Bits: uint64(uint16(tts4[i])), N: 4}, cache)
	}), note4)
	if store == nil {
		return
	}
	var full5 []tt.TT
	for _, x := range tts5 {
		if f := (tt.TT{Bits: uint64(x), N: 5}); f.SupportSize() == 5 {
			full5 = append(full5, f)
		}
	}
	note5 := "(" + itoa(len(full5)) + " calls)"
	l.set("npn.canon5_ns", perCall(len(full5), func(i int) { npn.Canonize5(full5[i]) }), note5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l.set("db.exact5_lookup_ns", perCall(len(full5), func(i int) { store.Lookup(ctx, full5[i]) }), note5)
}

// stride keeps an evenly spaced sample of at most n values.
func stride(xs []uint32, n int) []uint32 {
	if len(xs) <= n {
		return xs
	}
	out := make([]uint32, 0, n)
	step := float64(len(xs)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, xs[int(float64(i)*step)])
	}
	return out
}

func itoa(n int) string { return strconv.Itoa(n) }

// setRuntimeLayers records the Go runtime's allocation, GC and CPU
// deltas over a timed section, per round.
func (l *layerValues) setRuntimeLayers(mem runtime.MemStats, cpu time.Duration, rounds int) {
	n := float64(rounds)
	note := "(per round, " + itoa(rounds) + " rounds)"
	l.set("go.alloc_mb", float64(mem.TotalAlloc)/(1<<20)/n, note)
	l.set("go.gc_cycles", float64(mem.NumGC)/n, note)
	l.set("go.cpu_s", cpu.Seconds()/n, note)
}
