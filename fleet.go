package hbbtvlab

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// This file is the fleet topology's library surface: ExecuteShard runs
// one collector's partition of a campaign and stamps the result with a
// self-describing store.ShardManifest; Merge recombines K shard datasets
// into the dataset a single-process sharded run would have produced,
// byte-identical by Digest. Both follow the package's convenience/context
// pairing convention (see the package doc).

// ExecuteShard is Execute for fleet shard shard of of, with
// context.Background() and no checkpoint. It performs the configured
// measurement runs over the shard-th of of strided partitions of the
// selected channel order — the exact partition the in-process sharded
// engine (Options.Parallelism >= 1 with Options.Shards = of) assigns to
// its shard-th framework, run by the same core.RunShard on a framework
// seeded the same way (Seed ^ shard) — and returns a shard dataset
// carrying a store.ShardManifest. Merging the datasets of shards 0..of-1
// (Merge, or the hbbtv-merge command) yields a dataset whose Digest is
// byte-identical to that single-process run's.
//
// When of exceeds the channel count the partition clamps exactly like the
// in-process engine's: shards at or beyond the channel count own no
// channels and return well-formed empty runs that merge neutrally.
//
// When Options.Telemetry is set, the registry must have at least of shard
// slots (build it as NewTelemetry(Options{Parallelism: 1, Shards: of}));
// the shard's instrumentation lands in slot shard, mirroring the
// in-process engine. A partial shard (cancelled context) fails the
// merge's coverage verification rather than corrupting the campaign.
func (s *Study) ExecuteShard(shard, of int) (*store.Dataset, error) {
	return s.Execute(context.Background(), ExecOptions{Shard: &FleetShard{Index: shard, Of: of}})
}

// checkFleetShard rejects a fleet shard the study cannot run.
func (s *Study) checkFleetShard(fs FleetShard) error {
	if fs.Of < 1 {
		return fmt.Errorf("hbbtvlab: ExecuteShard: shard count %d must be >= 1", fs.Of)
	}
	if fs.Index < 0 || fs.Index >= fs.Of {
		return fmt.Errorf("hbbtvlab: ExecuteShard: shard index %d out of range [0, %d)", fs.Index, fs.Of)
	}
	if tr := s.opts.Telemetry; tr != nil && tr.Shards() <= fs.Index {
		return fmt.Errorf("hbbtvlab: ExecuteShard: Options.Telemetry has %d shard slot(s), shard %d of %d needs %d (build the registry with NewTelemetry(Options{Parallelism: 1, Shards: %d}))",
			tr.Shards(), fs.Index, fs.Of, fs.Index+1, fs.Of)
	}
	return nil
}

// executeShard runs one fleet collector through core.RunShard and stamps
// the shard manifest on the result.
func (s *Study) executeShard(ctx context.Context, fs FleetShard, channels []*dvb.Service, cp *core.Checkpointer) (*store.Dataset, error) {
	subset := core.ShardSubset(channels, fs.Index, core.EffectiveShards(fs.Of, len(channels)))
	ds := &store.Dataset{}
	var err error
	if len(subset) == 0 {
		// The partition clamps: this shard owns no channels. Don't build a
		// framework — powering a TV on and off logs entries the in-process
		// engine (which only ever builds the effective shard count of
		// frameworks) never records, so an empty run must be synthesized,
		// not executed, to merge byte-neutrally.
		for _, spec := range s.opts.Runs {
			ds.Runs = append(ds.Runs, &store.RunData{Name: spec.Name, Date: spec.Date})
		}
	} else {
		var runs []*store.RunData
		runs, err = core.RunShard(ctx, s.shardFramework, fs.Index, s.opts.Runs, subset, cp)
		for _, run := range runs {
			if run != nil {
				ds.Runs = append(ds.Runs, run)
			}
		}
		// RunShard leaves cancellation to its caller, like core.Pool.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		if err != nil {
			err = fmt.Errorf("hbbtvlab: shard %d: %w", fs.Index, err)
		}
	}
	order := channelOrder(channels)
	params, perr := s.studyParams()
	if perr != nil {
		return ds, errors.Join(err, perr)
	}
	m := &store.ShardManifest{
		Shard:        fs.Index,
		Shards:       fs.Of,
		Params:       params,
		ChannelOrder: order,
		OrderDigest:  store.ChannelOrderDigest(order),
	}
	for _, run := range ds.Runs {
		m.Coverage = append(m.Coverage, store.CoverageFromRun(run))
	}
	ds.Shard = m
	return ds, err
}

// channelOrder is the canonical channel order (the funnel output's
// names) that shard manifests and checkpoint headers pin.
func channelOrder(channels []*dvb.Service) []string {
	order := make([]string, len(channels))
	for i, svc := range channels {
		order[i] = svc.Name
	}
	return order
}

// studyParams fingerprints the study's effective configuration for the
// shard manifest. Composite configuration (run specs, fault plans) is
// digested so the manifest stays flat and comparable.
func (s *Study) studyParams() (store.StudyParams, error) {
	p := store.StudyParams{
		Seed:         s.opts.Seed,
		Scale:        s.opts.Scale,
		ProbeWatchNS: int64(s.opts.ProbeWatch),
		RunsDigest:   hashRunSpecs(s.opts.Runs),
		Retry: store.RetryParams{
			MaxAttempts:     s.opts.Retry.MaxAttempts,
			BackoffNS:       int64(s.opts.Retry.Backoff),
			BackoffMaxNS:    int64(s.opts.Retry.BackoffMax),
			VisitDeadlineNS: int64(s.opts.Retry.VisitDeadline),
			QuarantineAfter: s.opts.Retry.QuarantineAfter,
		},
	}
	if s.opts.Faults != nil {
		// NewStudyChecked stored the effective (seed-derived) config, and
		// encoding/json writes map keys sorted, so the digest is
		// deterministic and covers what actually ran.
		raw, err := json.Marshal(s.opts.Faults)
		if err != nil {
			return p, fmt.Errorf("hbbtvlab: shard manifest: marshal fault config: %w", err)
		}
		sum := sha256.Sum256(raw)
		p.FaultsDigest = hex.EncodeToString(sum[:])
	}
	return p, nil
}

// hashRunSpecs digests the run specs field by field (length-framed), so
// any spec change — name, date, button, watch time, screenshot cadence —
// changes the fingerprint.
func hashRunSpecs(specs []core.RunSpec) string {
	h := sha256.New()
	for _, spec := range specs {
		fmt.Fprintf(h, "%d:%s|%d|%d:%s|%d|%d;",
			len(spec.Name), spec.Name, spec.Date.UnixNano(),
			len(spec.Button), spec.Button, spec.Watch, spec.ShotEvery)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Merge is MergeContext with context.Background().
func Merge(datasets ...*store.Dataset) (*store.Dataset, error) {
	return MergeContext(context.Background(), datasets...)
}

// MergeContext verifies the shard manifests of the given shard datasets —
// identical study parameters and channel order, shards 0..N-1 covered
// exactly once — and merges them into one complete dataset whose Digest
// is byte-identical to a single-process sharded run (Options.Parallelism
// >= 1, Options.Shards = N) of the same study, fault-degraded campaigns
// included. The merged dataset carries no shard manifest, but it does
// carry the fleet-wide telemetry snapshot and span trace merged from the
// shards (see store.MergeShards). Input order does not matter; the
// manifests place every dataset.
func MergeContext(ctx context.Context, datasets ...*store.Dataset) (*store.Dataset, error) {
	ds, err := store.MergeShards(ctx, nil, datasets)
	if err != nil {
		return nil, fmt.Errorf("hbbtvlab: merge: %w", err)
	}
	return ds, nil
}
