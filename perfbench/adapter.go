package main

// This file is the benchmark's only contact with the library: every call
// into hbbtvlab and its internal packages goes through the functions
// below, so an API change to the library costs an edit here and nowhere
// else in the benchmark.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/tracking"
)

type (
	options  = hbbtvlab.Options
	study    = hbbtvlab.Study
	dataset  = store.Dataset
	funnel   = core.FunnelReport
	results  = hbbtvlab.Results
	section  = hbbtvlab.Section
	dedupper = store.Dedup
)

const (
	outcomeOK          = store.OutcomeOK
	outcomeFailed      = store.OutcomeFailed
	outcomeQuarantined = store.OutcomeQuarantined
)

// reliableOptions is `hbbtv-measure -j 2` at paper scale: the reliable
// world, program telemetry off, the default 8 logical shards.
func reliableOptions(seed int64, scale float64) options {
	return options{Seed: seed, Scale: scale, Parallelism: 2}
}

// fleetOptions is one `hbbtv-measure -shard i/4` collector.
func fleetOptions(seed int64, scale float64) options {
	return options{Seed: seed, Scale: scale}
}

// fleetReferenceOptions is the single-process campaign a 4-shard fleet
// must reproduce: `hbbtv-measure -j 2 -shards 4`.
func fleetReferenceOptions(seed int64, scale float64) options {
	return options{Seed: seed, Scale: scale, Parallelism: 2, Shards: fleetShards}
}

// chaosOptions is `hbbtv-measure -j 2 -fault-rate 0.25 -telemetry
// -checkpoint FILE`: faults on with the fault seed derived from the study
// seed (Faults.Seed 0), the CLI's retry policy, and a fresh telemetry
// registry, which also records the span trace.
func chaosOptions(seed int64, scale float64) options {
	opts := options{
		Seed: seed, Scale: scale, Parallelism: 2,
		Faults: &faults.Config{Rate: 0.25},
		Retry: core.RetryPolicy{
			MaxAttempts:     3,
			Backoff:         2 * time.Second,
			VisitDeadline:   5 * time.Minute,
			QuarantineAfter: 3,
		},
	}
	opts.Telemetry = hbbtvlab.NewTelemetry(opts)
	return opts
}

func newStudy(opts options) (*study, error) { return hbbtvlab.NewStudyChecked(opts) }

// selectChannels runs the Section IV-B funnel. Probe-level degradation
// under faults is part of the workload, not an error.
func selectChannels(s *study) (*funnel, error) {
	f, err := s.SelectChannels()
	if err != nil && (f == nil || !hbbtvlab.DegradedOnly(err)) {
		return nil, err
	}
	return f, nil
}

// accept turns a degraded-but-complete campaign into success, as
// hbbtv-measure does; any other error stops the job.
func accept(ds *dataset, err error) (*dataset, error) {
	if err != nil && (ds == nil || !hbbtvlab.DegradedOnly(err)) {
		return nil, err
	}
	return ds, nil
}

func executeRuns(s *study) (*dataset, error) { return accept(s.ExecuteRuns()) }

func executeShard(s *study, shard int) (*dataset, error) {
	return accept(s.ExecuteShard(shard, fleetShards))
}

// executeResumable runs the campaign with a write-ahead journal fsync'd
// after every cell; with resume it replays the journal at path instead.
func executeResumable(s *study, path string, resume bool) (*dataset, error) {
	return accept(s.ExecuteResumable(context.Background(),
		hbbtvlab.CheckpointOptions{Path: path, Resume: resume, SyncEvery: 1}))
}

// tracedShardFramework mirrors the study's own shard factory — a fresh
// synthetic world on a shard-private virtual clock, framework seed
// Seed ^ shard — and wraps every virtual host's handler with a timer.
// The benchmark checks that a campaign run on it has the untraced Digest.
func tracedShardFramework(seed int64, scale float64, tr *campaignTrace) core.ShardFactory {
	return func(shard int) (*core.Framework, error) {
		clk := clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC))
		t0 := time.Now()
		world := synth.Build(synth.Config{Seed: seed, Scale: scale}, clk)
		tr.synthBuild.Add(int64(time.Since(t0)))
		for _, host := range world.Internet.Hosts() {
			if h, ok := world.Internet.Lookup(host); ok {
				world.Internet.Handle(host, timedHandler{h: h, tr: tr})
			}
		}
		return core.New(core.Config{
			Internet:     world.Internet,
			Seed:         seed ^ int64(shard),
			Clock:        clk,
			Availability: world.Availability,
		}), nil
	}
}

// campaignTrace accumulates the traced campaign's layer totals; shards
// run on two workers, so every field is updated atomically.
type campaignTrace struct {
	synthBuild  atomic.Int64 // ns spent building shard worlds
	headendBusy atomic.Int64 // ns spent inside virtual-host handlers
	requests    atomic.Int64 // handler invocations
}

type timedHandler struct {
	h  http.Handler
	tr *campaignTrace
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.tr.headendBusy.Add(int64(time.Since(t0)))
	t.tr.requests.Add(1)
}

// executeRunsTraced is ExecuteRuns on the traced shard factory, with the
// same shard count, worker count and run specs as the study's own pool.
func executeRunsTraced(seed int64, scale float64, f *funnel, tr *campaignTrace) (*dataset, error) {
	pool := &core.Pool{Workers: 2, Factory: tracedShardFramework(seed, scale, tr)}
	return accept(pool.ExecuteRuns(context.Background(), core.DefaultRuns(), f.Final))
}

func runCount() int { return len(core.DefaultRuns()) }

// saveSnapshot writes ds as a binary snapshot and returns its size.
func saveSnapshot(path string, ds *dataset) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := store.Save(f, ds, store.FormatSnapshot); err != nil {
		f.Close()
		return 0, fmt.Errorf("save %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// loadDataset reads a dataset file through dd (nil for a plain load).
func loadDataset(path string, dd *dedupper) (*dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := store.LoadDedup(f, dd)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return ds, nil
}

func newDedup() *dedupper { return store.NewDedup() }

func dedupBlobRatio(dd *dedupper) float64 { return dd.Stats().BlobRatio() }

func mergeShards(shards []*dataset) (*dataset, error) {
	return store.MergeShards(context.Background(), nil, shards)
}

func digest(ds *dataset) (string, error) { return ds.Digest() }

func allSections() []section { return hbbtvlab.AllSections() }

// analyze runs the analysis engine; reg, when non-nil, receives the
// engine's own index-build and per-section timings.
func analyze(ds *dataset, parallelism int, sections []section, reg *telemetry.Registry) (*results, error) {
	return hbbtvlab.AnalyzeContext(context.Background(), ds, hbbtvlab.AnalyzeOptions{
		Parallelism: parallelism, Sections: sections, Telemetry: reg,
	})
}

func render(res *results) ([]byte, error) {
	var b bytes.Buffer
	if err := hbbtvlab.RenderAll(&b, res); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// analyzeIndexTime runs a one-section analysis with the engine's own
// telemetry on and returns its wall time and the index build's share.
func analyzeIndexTime(ds *dataset, s section) (total, index time.Duration, err error) {
	reg := telemetry.New(telemetry.Options{Shards: 1})
	t0 := time.Now()
	if _, err := analyze(ds, 2, []section{s}, reg); err != nil {
		return 0, 0, err
	}
	total = time.Since(t0)
	h := reg.Snapshot().Histograms["analyze.index.build_us"]
	return total, time.Duration(h.Sum) * time.Microsecond, nil
}

// buildIndex builds the analysis index the way AnalyzeContext does and
// returns its row and unique-URL counts.
func buildIndex(ds *dataset) (rows, uniqueURLs int, err error) {
	cfg := tracking.NewClassifier().IndexConfig()
	cfg.Parallelism = 2
	ix, err := store.BuildIndex(context.Background(), ds, cfg)
	if err != nil {
		return 0, 0, err
	}
	bs := ix.BuildStats()
	if bs == nil {
		return ix.FlowCount(), ix.FlowCount(), nil
	}
	return bs.Rows, bs.UniqueURLs, nil
}

func journalCells(path string) (int, error) {
	cp, _, err := store.LoadJournal(path)
	if err != nil {
		return 0, err
	}
	return len(cp.Cells), nil
}
