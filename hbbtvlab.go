// Package hbbtvlab is a faithful, laptop-scale reproduction of the DSN
// 2025 measurement study "Privacy from 5 PM to 6 AM: Tracking and
// Transparency Mechanisms in the HbbTV Ecosystem".
//
// The public API follows the study's own workflow:
//
//	study := hbbtvlab.NewStudy(hbbtvlab.Options{Seed: 1, Scale: 1.0})
//	funnel, _ := study.SelectChannels()   // Section IV-B filtering funnel
//	dataset, _ := study.ExecuteRuns()     // the five measurement runs
//	results := hbbtvlab.Analyze(dataset)  // Sections V, VI, VII
//
// Everything below the API is built from scratch on the standard library:
// a DVB broadcast layer with binary AITs, a webOS-style TV with an HbbTV
// runtime, a recording mitmproxy substitute, a virtual Internet of
// broadcaster and tracker services, and the full analysis suite (filter
// lists, tracking heuristics, ecosystem graph, consent-notice annotation,
// and the privacy-policy pipeline with policy-vs-traffic contradiction
// checks).
//
// # Context pairing
//
// Every long-running entry point has a context form that supports
// cooperative cancellation and — where noted — returns the well-formed
// partial result collected so far together with the context's error.
// Measurement has one: Execute(ctx, ExecOptions{Shard, Checkpoint})
// covers the whole campaign, one fleet shard, and either with a
// checkpoint journal; ExecuteRuns, ExecuteShard and ExecuteResumable are
// its convenience forms. The other pairs are Run and RunContext, Merge
// and MergeContext, Analyze and AnalyzeContext, where the convenience
// form is the context form called with context.Background().
//
// # Fleet topology
//
// A campaign can be split across independent collector processes:
// ExecuteShard(i, N) (Execute with ExecOptions.Shard) measures the i-th
// strided partition of the channel order and returns a shard dataset
// whose store.ShardManifest makes it self-describing. A collector runs
// the same shard loop (core.RunShard) as each shard of the in-process
// engine. Merge verifies K such datasets cover the campaign exactly once
// with identical study parameters and recombines them into a dataset
// byte-identical (by Digest) to a single-process sharded run
// (Parallelism >= 1) of the same study with Options.Shards = N. The
// hbbtv-measure -shard i/N flag and the hbbtv-merge command are the CLI
// face of the same API.
package hbbtvlab

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// Options configures a Study.
type Options struct {
	// Seed makes the whole study deterministic.
	Seed int64
	// Scale multiplies the world size; 1.0 is paper scale (3,575 received
	// services, 396 analyzed channels), smaller values build proportional
	// worlds for fast experimentation.
	Scale float64
	// ProbeWatch overrides the exploratory per-channel watch time
	// (default: the paper's 910 s — virtual time, so it costs nothing).
	ProbeWatch time.Duration
	// Runs overrides the measurement-run specs (default: the study's five
	// runs with their real dates).
	Runs []core.RunSpec
	// Parallelism selects the measurement engine. 0 (the default) is the
	// paper's exact procedure: one TV measures every channel serially on a
	// single timeline — the study's own post-funnel framework, run as a
	// one-shard pool (Shards is ignored). N >= 1 enables the sharded
	// engine: the channel list is partitioned across Shards isolated
	// frameworks (own virtual clock, recorder, TV, and synthetic world,
	// seeded Seed ^ shard) and N worker goroutines execute the shards.
	// For a fixed Shards value the sharded engine produces a
	// byte-identical dataset for every N >= 1 — workers change wall-clock
	// time only. Both engines run the same shard loop, so both can be
	// checkpointed and resumed (see ExecuteResumable).
	Parallelism int
	// Shards is the logical shard count of the sharded engine (0 =
	// core.DefaultShards). Changing it changes the shard partition and
	// therefore the dataset; changing Parallelism never does.
	Shards int
	// Telemetry, when non-nil, instruments the measurement engine with
	// the given registry (build one with NewTelemetry). Telemetry reads
	// the virtual clock only and is excluded from Dataset.Digest, so
	// enabling it never changes results; the final snapshot is attached
	// to the returned Dataset (and persisted by store.Save).
	Telemetry *telemetry.Registry
	// Faults, when non-nil, enables deterministic fault injection: dead
	// hosts, timeouts, hangs, 5xx bursts, truncated/reset bodies, tune
	// failures, and AIT corruption, scheduled purely by (Faults.Seed,
	// host, channel, attempt). A Faults.Seed of 0 derives the fault seed
	// from Options.Seed. The zero value (nil) runs the perfectly reliable
	// world. For a fixed (Seed, Faults.Seed, Shards) the fault schedule —
	// and therefore the dataset — is identical for every Parallelism.
	Faults *faults.Config
	// Retry is the per-channel resilience policy: visit attempt budget,
	// virtual-clock backoff with deterministic jitter, per-visit setup
	// deadline, and run-streak quarantine. The zero value means one
	// attempt, no backoff, no deadline, no quarantine — the engine's
	// historical behaviour, except that a failed channel is now recorded
	// as a store.ChannelOutcome and never aborts the run.
	Retry core.RetryPolicy
}

// Validate checks the options for values that are neither meaningful nor
// defaultable. The zero value of every field is valid and selects the
// documented default; values that would otherwise have to be silently
// clamped are rejected instead, so a typo cannot masquerade as a default:
// negative Parallelism or Shards, a negative or non-finite Scale, an
// out-of-range fault rate or unknown fault kind in Faults, and negative
// attempt budgets or durations in Retry.
func (o Options) Validate() error {
	if o.Parallelism < 0 {
		return fmt.Errorf("hbbtvlab: Options.Parallelism must be >= 0, got %d", o.Parallelism)
	}
	if o.Shards < 0 {
		return fmt.Errorf("hbbtvlab: Options.Shards must be >= 0, got %d", o.Shards)
	}
	if math.IsNaN(o.Scale) || math.IsInf(o.Scale, 0) {
		return fmt.Errorf("hbbtvlab: Options.Scale must be finite, got %v", o.Scale)
	}
	if o.Scale < 0 {
		return fmt.Errorf("hbbtvlab: Options.Scale must be >= 0, got %v", o.Scale)
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return fmt.Errorf("hbbtvlab: Options.Faults: %w", err)
		}
	}
	if err := o.Retry.Validate(); err != nil {
		return fmt.Errorf("hbbtvlab: Options.Retry: %w", err)
	}
	return nil
}

// NewTelemetry builds a telemetry registry correctly sized for the
// measurement engine the options select: one shard slot for the paper's
// serial procedure, Shards (or core.DefaultShards) slots for the sharded
// engine.
func NewTelemetry(opts Options) *telemetry.Registry {
	shards := 1
	if opts.Parallelism >= 1 {
		shards = opts.Shards
		if shards <= 0 {
			shards = core.DefaultShards
		}
	}
	return telemetry.New(telemetry.Options{Shards: shards})
}

// Study bundles the synthetic world with the measurement framework.
type Study struct {
	opts      Options
	World     *synth.World
	Framework *core.Framework

	// injector is the study's fault injector (nil when faults are off).
	// Injectors are stateless and shard-agnostic, so one instance serves
	// the serial framework and every shard alike.
	injector *faults.Injector

	selected []*dvb.Service

	// worldsMu guards shardWorlds: the per-shard synthetic worlds built by
	// shardFramework (or the study's own world, the serial engine's one
	// shard), kept so the checkpoint layer can capture and restore their
	// handler state (tracker rng positions and ID counters).
	worldsMu    sync.Mutex
	shardWorlds map[int]*synth.World
}

// shardWorld returns the world built for the given shard, or nil before
// its framework was built.
func (s *Study) shardWorld(shard int) *synth.World {
	s.worldsMu.Lock()
	defer s.worldsMu.Unlock()
	return s.shardWorlds[shard]
}

func (s *Study) setShardWorld(shard int, w *synth.World) {
	s.worldsMu.Lock()
	defer s.worldsMu.Unlock()
	if s.shardWorlds == nil {
		s.shardWorlds = make(map[int]*synth.World)
	}
	s.shardWorlds[shard] = w
}

// NewStudy builds the world and wires the measurement framework to it.
// Invalid options (see Options.Validate) panic with a descriptive
// message; use NewStudyChecked to handle them as errors instead.
func NewStudy(opts Options) *Study {
	s, err := NewStudyChecked(opts)
	if err != nil {
		panic("hbbtvlab: NewStudy: " + err.Error())
	}
	return s
}

// NewStudyChecked is NewStudy returning option-validation errors instead
// of panicking — the form for callers wiring user-supplied configuration.
func NewStudyChecked(opts Options) (*Study, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	if opts.ProbeWatch <= 0 {
		opts.ProbeWatch = core.ExploratoryWatch
	}
	if opts.Runs == nil {
		opts.Runs = core.DefaultRuns()
	}
	var injector *faults.Injector
	if opts.Faults != nil {
		fc := *opts.Faults
		if fc.Seed == 0 {
			// Derive a distinct fault seed from the study seed so that
			// enabling faults with default settings still varies by study.
			fc.Seed = opts.Seed ^ 0x6661756c74 // "fault"
		}
		var err error
		if injector, err = faults.New(fc); err != nil {
			return nil, fmt.Errorf("hbbtvlab: Options.Faults: %w", err)
		}
		// opts is the study's private copy; keep the effective (seed-
		// derived) config so the shard manifest fingerprints what actually
		// ran, not what the caller wrote.
		opts.Faults = &fc
	}
	clk := clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC))
	world := synth.Build(synth.Config{Seed: opts.Seed, Scale: opts.Scale}, clk)
	fw := core.New(core.Config{
		Internet:     world.Internet,
		Seed:         opts.Seed,
		Clock:        clk,
		Availability: world.Availability,
		Faults:       injector,
		Retry:        opts.Retry,
		// The study's own framework (serial engine, funnel probes) is
		// telemetry shard 0 on its virtual clock.
		Telemetry: opts.Telemetry.Shard(0, clk.Now),
	})
	return &Study{opts: opts, World: world, Framework: fw, injector: injector}, nil
}

// SelectChannels runs the Section IV-B funnel: scan the satellites, apply
// the metadata filters, perform the exploratory measurement, and keep the
// HbbTV channels.
func (s *Study) SelectChannels() (*core.FunnelReport, error) {
	bouquet := dvb.NewReceiver().Scan(s.World.Universe)
	report, err := core.SelectChannels(bouquet, s.Framework.Probe(s.opts.ProbeWatch))
	if report != nil {
		s.selected = report.Final
	}
	if err != nil {
		// Probe errors are aggregated; the report still covers every
		// candidate that probed cleanly.
		return report, fmt.Errorf("hbbtvlab: funnel: %w", err)
	}
	return report, nil
}

// Selected returns the funnel's output (running the funnel on demand).
// Pure probe-level degradation (failed candidates excluded by the funnel,
// see core.DegradedOnly) does not fail Selected: the study proceeds with
// the channels that probed cleanly, as the field campaign would.
func (s *Study) Selected() ([]*dvb.Service, error) {
	if s.selected == nil {
		if _, err := s.SelectChannels(); err != nil && !core.DegradedOnly(err) {
			return nil, err
		}
	}
	return s.selected, nil
}

// ExecOptions select what Study.Execute measures and whether it journals.
// The zero value measures the whole campaign without a checkpoint.
type ExecOptions struct {
	// Shard, when non-nil, measures one collector's partition of a fleet
	// campaign instead of the whole campaign (see the package doc's
	// "Fleet topology").
	Shard *FleetShard
	// Checkpoint, when non-nil, journals every completed (shard, run) cell
	// to a write-ahead checkpoint so a killed campaign can resume (see
	// CheckpointOptions).
	Checkpoint *CheckpointOptions
}

// FleetShard names one collector of a fleet campaign: the Index-th of Of
// strided partitions of the selected channel order.
type FleetShard struct {
	Index, Of int
}

// ExecuteRuns is Execute for the whole campaign with
// context.Background() and no checkpoint.
func (s *Study) ExecuteRuns() (*store.Dataset, error) {
	return s.Execute(context.Background(), ExecOptions{})
}

// Execute performs all configured measurement runs over the selected
// channels and returns the dataset: the whole campaign, or with
// eo.Shard one fleet collector's shard dataset (see ExecuteShard).
//
// Every path runs the engine's one shard loop (core.RunShard). With
// Options.Parallelism >= 1 the sharded engine partitions the channels
// across Shards isolated frameworks and merges them; with Parallelism 0
// the paper's serial procedure runs as a one-shard pool on the study's
// own framework, so one TV measures every channel on a single timeline.
//
// With eo.Checkpoint every completed cell is committed to the journal
// before its shard proceeds (see ExecuteResumable), for every engine.
//
// Per-channel degradation (see DegradedOnly) does not abort the campaign:
// failed visits are recorded as outcomes, the remaining runs proceed, and
// the joined degradation errors are returned with the well-formed
// dataset. A cancelled context yields the well-formed partial dataset
// collected so far together with the context's error.
func (s *Study) Execute(ctx context.Context, eo ExecOptions) (ds *store.Dataset, err error) {
	if eo.Shard != nil {
		if err := s.checkFleetShard(*eo.Shard); err != nil {
			return nil, err
		}
	}
	channels, err := s.Selected()
	if err != nil {
		return nil, err
	}
	var cp *core.Checkpointer
	if eo.Checkpoint != nil {
		want, err := s.checkpointHeader(channels, eo.Shard)
		if err != nil {
			return nil, err
		}
		loaded, journal, err := openJournal(*eo.Checkpoint, want)
		if err != nil {
			return nil, err
		}
		// The close syncs every committed cell; its error matters even
		// when the campaign itself succeeded.
		defer func() {
			if cerr := journal.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("hbbtvlab: close checkpoint journal: %w", cerr))
			}
		}()
		cp = s.checkpointer(loaded, journal)
	}
	if eo.Shard != nil {
		ds, err = s.executeShard(ctx, *eo.Shard, channels, cp)
	} else {
		ds, err = s.executeCampaign(ctx, channels, cp)
	}
	s.attachTelemetry(ds)
	return ds, err
}

// executeCampaign runs the whole campaign on the in-process pool: N
// shards then a merge. The paper's serial procedure (Parallelism 0) is
// the one-shard pool over the study's own post-funnel framework.
func (s *Study) executeCampaign(ctx context.Context, channels []*dvb.Service, cp *core.Checkpointer) (*store.Dataset, error) {
	pool := &core.Pool{
		Shards:  s.opts.Shards,
		Workers: s.opts.Parallelism,
		Factory: s.shardFramework,
		// Merge phases are engine-controller work, timestamped on the
		// study clock (which the sharded engine leaves untouched — the
		// shards advance their own clocks — and the serial engine's one
		// shard advances deterministically, so controller events are as
		// deterministic as the shards' own).
		Telemetry:  s.opts.Telemetry.Controller(s.Framework.Clock.Now),
		Checkpoint: cp,
	}
	if s.opts.Parallelism < 1 {
		pool.Shards, pool.Workers, pool.Factory = 1, 1, s.studyFramework
	}
	ds, err := pool.ExecuteRuns(ctx, s.opts.Runs, channels)
	if err != nil {
		return ds, fmt.Errorf("hbbtvlab: campaign: %w", err)
	}
	return ds, nil
}

// attachTelemetry embeds the engine's final telemetry snapshot and span
// trace in the dataset (a no-op when telemetry is disabled). Both ride
// along in store.Save but are excluded from Dataset.Digest.
func (s *Study) attachTelemetry(ds *store.Dataset) {
	if ds != nil && s.opts.Telemetry != nil {
		ds.Telemetry = s.opts.Telemetry.Snapshot()
		ds.Trace = s.opts.Telemetry.Trace()
	}
}

// Telemetry returns the study's telemetry registry (nil unless
// Options.Telemetry was set).
func (s *Study) Telemetry() *telemetry.Registry { return s.opts.Telemetry }

// DegradedOnly reports whether err consists purely of per-channel
// degradation — failed channel visits and failed funnel probes that the
// resilient engine recorded (as store.ChannelOutcome entries and funnel
// exclusions) before continuing. A degraded dataset is well-formed and
// analyzable; any other error (cancellation above all) means the campaign
// actually stopped.
func DegradedOnly(err error) bool { return core.DegradedOnly(err) }

// studyFramework is the serial engine's core.ShardFactory: its only
// shard is the study's own post-funnel framework on the study's world,
// registered as shard 0's world so checkpoints capture and restore it.
func (s *Study) studyFramework(shard int) (*core.Framework, error) {
	s.setShardWorld(shard, s.World)
	return s.Framework, nil
}

// shardFramework is the study's core.ShardFactory: it rebuilds the
// synthetic world from the study seed on a shard-private virtual clock, so
// every shard sees an identical Internet with fully isolated handler state
// (tracker ID counters, timestamp cookies), and seeds the shard's
// framework with Seed ^ shard for its channel-visit order and TV identity.
func (s *Study) shardFramework(shard int) (*core.Framework, error) {
	clk := clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC))
	world := synth.Build(synth.Config{Seed: s.opts.Seed, Scale: s.opts.Scale}, clk)
	s.setShardWorld(shard, world)
	return core.New(core.Config{
		Internet:     world.Internet,
		Seed:         s.opts.Seed ^ int64(shard),
		Clock:        clk,
		Availability: world.Availability,
		Faults:       s.injector,
		Retry:        s.opts.Retry,
		Telemetry:    s.opts.Telemetry.Shard(shard, clk.Now),
	}), nil
}

// Run executes a single named run (useful for examples and ablations).
func (s *Study) Run(name store.RunName) (*store.RunData, error) {
	return s.RunContext(context.Background(), name)
}

// RunContext is Run with cooperative cancellation: a cancelled context
// yields the partial run data collected so far with the context's error.
func (s *Study) RunContext(ctx context.Context, name store.RunName) (*store.RunData, error) {
	channels, err := s.Selected()
	if err != nil {
		return nil, err
	}
	for _, spec := range s.opts.Runs {
		if spec.Name == name {
			return s.Framework.ExecuteRunContext(ctx, spec, channels)
		}
	}
	return nil, fmt.Errorf("hbbtvlab: unknown run %q", name)
}
