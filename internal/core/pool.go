package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// DefaultShards is the fixed logical shard count of the parallel
// measurement engine. The shard count — not the worker count — determines
// the partitioning of channels onto isolated frameworks, so it must stay
// fixed for a study's results to be reproducible; workers only decide how
// many shards execute concurrently.
const DefaultShards = 8

// ShardFactory builds the isolated measurement framework for one shard.
// The returned Framework must not share mutable state (virtual clock,
// recorder, TV, or virtual-Internet handler state) with any other shard;
// the engine's determinism and race freedom both rest on that isolation.
// Implementations typically rebuild the synthetic world from the study
// seed and derive the framework seed as studySeed ^ shard.
type ShardFactory func(shard int) (*Framework, error)

// Pool is the sharded measurement engine: it partitions a run's channel
// list across a fixed number of logical shards, executes each shard's
// measurement runs on its own isolated Framework using a bounded worker
// pool, and merges the per-shard results into one Dataset in canonical
// channel order.
//
// Results depend only on (Factory, Shards, specs, channels) — never on
// Workers or on scheduling: shard s always measures channels[i] with
// i % Shards == s, in the canonical relative order, on a framework built
// solely from the shard index. Raising Workers changes wall-clock time,
// not a single byte of the merged dataset.
type Pool struct {
	// Shards is the logical shard count; 0 means DefaultShards. It is
	// clamped to the channel count so no shard is empty.
	Shards int
	// Workers bounds concurrent shard execution; 0 means GOMAXPROCS.
	Workers int
	// Factory builds one isolated Framework per shard.
	Factory ShardFactory
	// Telemetry is the engine-controller telemetry handle (from
	// telemetry.Registry.Controller); nil disables engine-level events.
	// Per-shard instrumentation is wired by the Factory through
	// Config.Telemetry.
	Telemetry *telemetry.Shard
	// Checkpoint, when non-nil, makes the campaign crash-safe: each
	// shard's completed cells (from an earlier, killed run of the same
	// study) are replayed instead of re-measured, and every freshly
	// completed (shard, run) cell is committed through the hooks before
	// the shard proceeds.
	Checkpoint *Checkpointer
}

// ExecuteRuns performs all specs over the channel list using the sharded
// engine and returns the merged dataset.
//
// Cancellation: when ctx is cancelled mid-run, every shard stops at its
// next channel boundary, partial run data is collected and merged, and the
// (well-formed, partial) dataset is returned together with ctx.Err().
//
// Panics: a panic inside one channel's measurement is recovered by the
// shard's framework (see Framework.ExecuteRunContext), logged, and counted
// in the merged RunData.RecoveredPanics; the shard continues with its next
// channel. A panic outside channel scope (e.g. in the Factory) fails only
// that shard and is reported as an error.
func (p *Pool) ExecuteRuns(ctx context.Context, specs []RunSpec, channels []*dvb.Service) (*store.Dataset, error) {
	if p.Factory == nil {
		return nil, errors.New("core: pool has no shard factory")
	}
	// The campaign span lives on the controller slot. The controller's
	// clock is the study clock, which stands still while the shards run on
	// their own isolated clocks, so the span's extent is near zero — its
	// value is being the root the merge spans hang off.
	campaign := p.Telemetry.StartSpan(telemetry.SpanCampaign, fmt.Sprintf("runs=%d", len(specs)))
	defer campaign.End()
	shards := EffectiveShards(p.Shards, len(channels))
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}

	// Canonical channel order: the input list's order (the funnel output).
	order := make([]string, len(channels))
	for i, svc := range channels {
		order[i] = svc.Name
	}

	// Per shard: one RunData per spec index (see RunShard) and its error.
	runs := make([][]*store.RunData, shards)
	errs := make([]error, shards)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for shard := range jobs {
				runs[shard], errs[shard] = RunShard(ctx, p.Factory, shard, specs, ShardSubset(channels, shard, shards), p.Checkpoint)
			}
		}()
	}
	for shard := 0; shard < shards; shard++ {
		jobs <- shard
	}
	close(jobs)
	wg.Wait()

	ds := &store.Dataset{}
	for si := range specs {
		shardRuns := make([]*store.RunData, shards)
		any := false
		for s := range runs {
			shardRuns[s] = runs[s][si]
			if shardRuns[s] != nil {
				any = true
			}
		}
		if !any {
			continue
		}
		merged := store.MergeRunShardsObserved(order, shardRuns, p.Telemetry)
		// Run identity comes from the spec even if every shard was cancelled
		// before its first channel of this run.
		merged.Name, merged.Date = specs[si].Name, specs[si].Date
		ds.Runs = append(ds.Runs, merged)
	}

	if err := ctx.Err(); err != nil {
		return ds, err
	}
	for s, err := range errs {
		if err != nil {
			errs[s] = fmt.Errorf("core: shard %d: %w", s, err)
		}
	}
	return ds, errors.Join(errs...)
}

// RunShard is the engine's one shard loop: it builds the shard's
// framework with factory and executes every spec over the shard's channel
// subset on it. The in-process Pool runs one RunShard per logical shard
// and merges them; a fleet collector runs exactly one and stamps a shard
// manifest on the result; the paper's serial procedure is a one-shard
// pool whose factory returns the study's own framework.
//
// runs holds one RunData per spec index: nil where the shard never
// reached the run, partial data where a run was cancelled or hard-failed.
// cp (nil-safe) replays the shard's checkpointed run prefix instead of
// re-measuring it and commits every freshly completed run as a cell.
//
// Per-channel degradation (see DegradedOnly) is recorded, committed, and
// the shard proceeds with its next run; any other run error stops the
// shard without committing the partial run. A cancelled context's error
// is left out of err — the caller reports it once. A panic anywhere in
// the shard, framework construction included, fails only this shard with
// a wrapped error.
func RunShard(ctx context.Context, factory ShardFactory, shard int, specs []RunSpec, subset []*dvb.Service, cp *Checkpointer) (runs []*store.RunData, err error) {
	runs = make([]*store.RunData, len(specs))
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard panic: %v", r)
		}
	}()

	fw, err := factory(shard)
	if err != nil {
		return runs, fmt.Errorf("build framework: %w", err)
	}
	if fw.Telemetry.Active() {
		active := fw.Telemetry.Gauge("core_shards_active")
		active.Set(1)
		fw.Telemetry.Event(telemetry.EventShardStart, fmt.Sprintf("channels=%d", len(subset)))
		defer func() {
			fw.Telemetry.Event(telemetry.EventShardStop, "")
			active.Set(0)
		}()
	}
	// Resume: replay the shard's checkpointed run prefix and fast-forward
	// the framework (and the shard's world) to the last cell's state.
	start, err := cp.Resume(shard, specs, fw, runs)
	if err != nil {
		return runs, err
	}
	var errs []error
	for si := start; si < len(specs); si++ {
		spec := specs[si]
		run, err := fw.ExecuteRunContext(ctx, spec, subset)
		runs[si] = run // partial data is kept even on error
		if err != nil {
			if cerr := ctx.Err(); cerr == nil || !errors.Is(err, cerr) {
				errs = append(errs, fmt.Errorf("run %s: %w", spec.Name, err))
			}
			// A cancelled or hard-failed run is never committed as a cell:
			// its data is partial, and a resume must re-measure it.
			if !DegradedOnly(err) {
				break
			}
		}
		if cerr := cp.CommitCell(shard, si, spec, fw, run); cerr != nil {
			errs = append(errs, fmt.Errorf("run %s: checkpoint: %w", spec.Name, cerr))
			break
		}
	}
	return runs, errors.Join(errs...)
}
