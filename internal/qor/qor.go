package qor

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"mighash/internal/engine"
)

// SchemaVersion is the current record schema. Readers accept any record
// whose schema_version they know how to interpret (currently only 1) and
// skip-and-report unknown versions, so a store written by a newer build
// degrades to partial history instead of poisoning the whole file.
const SchemaVersion = 1

// Record is one quality-of-results measurement: one circuit optimized by
// one script, with the metrics the whole repository exists to move
// (gates, depth, runtime), the pass/cache/synthesis breakdown explaining
// them, and the provenance pinning where the number came from. Records
// are the unit of the append-only trend store and of regression gating.
type Record struct {
	Schema int `json:"schema_version"`
	// Run groups the records of one producing invocation (one migpipe
	// batch): every record of a run shares the ID, so readers can rebuild
	// per-run suites from a flat record stream.
	Run string `json:"run"`
	// Circuit and Script key the record: regression comparison pairs
	// records by (circuit, script) across runs.
	Circuit string `json:"circuit"`
	Script  string `json:"script"`

	// The quality-of-results triple. Gates and Depth are exact (the
	// optimizer is deterministic, so any drift is a real change); Runtime
	// is noisy and only gated with a relative tolerance.
	Gates   int           `json:"gates"`
	Depth   int           `json:"depth"`
	Runtime time.Duration `json:"runtime_ns"`

	// Where the result came from: script rounds, per-pass wall clock,
	// 4-input lookup memo traffic, 5-input synthesis and extraction
	// counters.
	Iterations  int        `json:"iterations,omitempty"`
	Passes      []PassTime `json:"passes,omitempty"`
	CacheHits   int        `json:"cache_hits,omitempty"`
	CacheMisses int        `json:"cache_misses,omitempty"`
	// Exact5Synths/Exact5Timeouts are run-level counters (the on-demand
	// store is shared by the whole batch); they ride on every record of
	// the run unchanged.
	Exact5Synths   int `json:"exact5_synths,omitempty"`
	Exact5Timeouts int `json:"exact5_timeouts,omitempty"`
	ExtractChoices int `json:"extract_choices,omitempty"`
	ExtractSaved   int `json:"extract_saved,omitempty"`

	Provenance Provenance `json:"provenance"`
}

// PassTime is one pass of the record's breakdown: enough to answer
// "which pass got slower" without storing full PassStats.
type PassTime struct {
	Name    string        `json:"name"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Provenance pins a record to the build and machine that produced it, so
// a regression verdict can distinguish "the code got worse" from "the
// runner changed". Fields are best-effort: a build outside a module
// (go run on a detached file) leaves the VCS fields empty.
type Provenance struct {
	// GitSHA is the vcs.revision of the producing binary's build, and
	// Dirty whether the working tree had local modifications.
	GitSHA string `json:"git_sha,omitempty"`
	Dirty  bool   `json:"dirty,omitempty"`
	// Time is when the record was produced (not the commit time).
	Time      time.Time `json:"time"`
	GoVersion string    `json:"go_version,omitempty"`
	OS        string    `json:"os"`
	Arch      string    `json:"arch"`
	// GOMAXPROCS is the parallelism the producing process ran with — the
	// single biggest legitimate source of runtime variance between runs.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// Describe renders the provenance as one human line for table footers.
func (p Provenance) Describe() string {
	sha := p.GitSHA
	if len(sha) > 12 {
		sha = sha[:12]
	}
	if sha == "" {
		sha = "unknown-rev"
	}
	if p.Dirty {
		sha += "+dirty"
	}
	return fmt.Sprintf("%s %s/%s gomaxprocs=%d %s",
		sha, p.OS, p.Arch, p.GOMAXPROCS, p.Time.Format(time.RFC3339))
}

// CollectProvenance captures the producing process's provenance: the git
// revision baked into the build by the Go toolchain (debug.ReadBuildInfo;
// empty outside a VCS build), the host os/arch, GOMAXPROCS and now.
func CollectProvenance() Provenance {
	p := Provenance{
		Time:       time.Now().UTC(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		p.GoVersion = info.GoVersion
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitSHA = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// FromResult converts one engine result into a record. Failed jobs have
// no quality to record and return ok=false — a crashed run must not
// enter the trend store as a miraculous zero-gate circuit.
func FromResult(run, script string, r engine.Result, prov Provenance) (Record, bool) {
	if r.Err != nil {
		return Record{}, false
	}
	rec := Record{
		Schema:         SchemaVersion,
		Run:            run,
		Circuit:        r.Name,
		Script:         script,
		Gates:          r.Stats.SizeAfter,
		Depth:          r.Stats.DepthAfter,
		Runtime:        r.Stats.Elapsed,
		Iterations:     r.Stats.Iterations,
		CacheHits:      r.Stats.CacheHits,
		CacheMisses:    r.Stats.CacheMisses,
		ExtractChoices: r.Stats.Choices,
		ExtractSaved:   r.Stats.ExtractSaved,
		Provenance:     prov,
	}
	// Per-pass wall clock is summed per pass name across iterations: the
	// trend question is "which pass got slower", not a full trace replay.
	idx := map[string]int{}
	for _, ps := range r.Stats.Passes {
		i, ok := idx[ps.Name]
		if !ok {
			i = len(rec.Passes)
			idx[ps.Name] = i
			rec.Passes = append(rec.Passes, PassTime{Name: ps.Name})
		}
		rec.Passes[i].Elapsed += ps.Elapsed
	}
	return rec, true
}

// NewRunID derives a run identifier from provenance: short SHA plus a
// millisecond-resolution UTC timestamp — unique across CI runs and
// across back-to-back local invocations (a second-resolution stamp made
// two runs in the same second share an ID, so the later run's records
// were silently deduped away), stable within one producing process.
func NewRunID(p Provenance) string {
	sha := p.GitSHA
	if len(sha) > 8 {
		sha = sha[:8]
	}
	if sha == "" {
		sha = "local"
	}
	return fmt.Sprintf("%s-%s", p.Time.Format("20060102T150405.000Z"), sha)
}
