package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sync"
	"time"
)

// fleetShards is the fleet width of fleet_report.
const fleetShards = 4

// fleetsPerRun is how many fleets, each on its own seed, a fleet_report
// run measures. The first fleet runs jobs for its share of the budget and
// the others as many, so the medians weigh every fleet alike. A fleet's
// set-up (four collectors and the reference campaign) takes about three
// jobs' time, so a run measures few fleets with several jobs each.
const fleetsPerRun = 2

// subSeed is the study seed of the k-th input set of a run with the given
// seed. A run measures jobs on many seeds so that its medians describe
// the workload rather than one synthetic world; seed s uses s*1000,
// s*1000+1, … and the same seed always gives the same inputs.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// inputSet is the input set of the i-th campaign or chaos job: every job
// has its own, except that job 1 repeats job 0's, so that the run checks
// that a second job on the same inputs writes the same snapshot. In trace
// mode every traced job repeats the untraced job before it.
func (b *bench) inputSet(i int) int {
	if b.cfg.trace {
		return i / 2
	}
	return max(i-1, 0)
}

// studyBuilds is how often a job's set-up builds its study; each build is
// one setup_s sample and the job keeps the last.
const studyBuilds = 3

func (b *bench) buildStudy(opts func() options) (s *study, err error) {
	for i := 0; i < studyBuilds; i++ {
		w := startWatch()
		if s, err = newStudy(opts()); err != nil {
			return nil, err
		}
		b.e2e.seconds("setup_s", w.busy())
	}
	return s, nil
}

// runCampaign is `hbbtv-measure -j 2 -snapshot FILE` as a library call
// sequence. Set-up builds the study (NewStudy: the synthetic world and
// framework); the job runs the funnel and the five runs and writes the
// snapshot. A job that repeats the inputs of the one before (see
// inputSet) must write its snapshot byte for byte; in trace mode it is the
// traced job, which drives the sharded engine through a benchmark-owned
// shard factory that times the world builds and every virtual host's
// handler. Before the jobs, the run checks the funnel at paper scale.
func runCampaign(b *bench) error {
	scale := b.cfg.scale
	if err := b.checkPaperFunnel(); err != nil {
		return err
	}
	path := b.path("campaign.snap")
	var firstDigest, firstHash string
	b.loop(b.cfg.seconds, func(i int) job {
		seed := subSeed(b.cfg.seed, b.inputSet(i))
		if i == 0 || b.inputSet(i) != b.inputSet(i-1) {
			firstDigest, firstHash = "", ""
		}
		var s *study
		var f *funnel
		var ds *dataset
		return job{
			setup: func() (err error) {
				s, err = b.buildStudy(func() options { return reliableOptions(seed, scale) })
				return err
			},
			run: func(traced bool) (int, error) {
				var err error
				if traced {
					f, ds, err = b.tracedCampaign(s, seed, path)
					return flowCount(ds), err
				}
				if f, err = selectChannels(s); err != nil {
					return 0, err
				}
				if ds, err = executeRuns(s); err != nil {
					return 0, err
				}
				_, err = saveSnapshot(path, ds)
				return flowCount(ds), err
			},
			check: func(traced bool) error {
				if err := checkOutcomes(ds, f, runCount(), false); err != nil {
					return err
				}
				h, err := fileHash(path)
				if err != nil {
					return err
				}
				if firstDigest == "" {
					// The first dataset on these inputs, in memory and
					// reloaded from disk, fixes the digest a repeat must
					// match.
					if firstDigest, err = digest(ds); err != nil {
						return err
					}
					rd, err := reloadDigest(path)
					if err != nil {
						return err
					}
					firstHash = h
					return checkEqual("reloaded snapshot digest", rd, firstDigest)
				}
				if traced {
					d, err := b.tracedDigest(ds)
					if err != nil {
						return err
					}
					if err := checkEqual("traced campaign digest", d, firstDigest); err != nil {
						return err
					}
				}
				return checkEqual("campaign snapshot SHA-256", h, firstHash)
			},
		}
	})
	return nil
}

// checkPaperFunnel runs the Section IV-B funnel at paper scale on the
// run's seed, outside the timed phase: 3,575 received and 396 final hold
// for every seed there.
func (b *bench) checkPaperFunnel() error {
	s, err := newStudy(reliableOptions(b.cfg.seed, 1.0))
	if err != nil {
		return err
	}
	f, err := selectChannels(s)
	if err != nil {
		return err
	}
	if err := checkFunnel(f, paperReceived, paperFinal); err != nil {
		b.fail("paper-scale %v", err)
	}
	return nil
}

// tracedCampaign is the campaign job with every layer timed from outside.
func (b *bench) tracedCampaign(s *study, seed int64, path string) (f *funnel, ds *dataset, err error) {
	t0 := time.Now()
	if err = b.stage("core.funnel_s", func() (err error) {
		f, err = selectChannels(s)
		return err
	}); err != nil {
		return nil, nil, err
	}
	tr := &campaignTrace{}
	u0 := readUsage()
	if err = b.stage("core.execute_s", func() (err error) {
		ds, err = executeRunsTraced(seed, b.cfg.scale, f, tr)
		return err
	}); err != nil {
		return nil, nil, err
	}
	u := u0.since()
	b.executeLedger(u, ds)
	synth := time.Duration(tr.synthBuild.Load())
	headend := time.Duration(tr.headendBusy.Load())
	b.layers.seconds("synth.build_s", synth)
	b.layers.seconds("headend.busy_s", headend)
	b.layers.add("headend.requests", "count", float64(tr.requests.Load()))
	// What the engine's CPU spent outside GC, the virtual hosts and the
	// world builds: the TV runtime, the recording proxy and the transport.
	b.layers.add("webos-proxy-hostnet.busy_s", "s",
		(u.cpu-headend-synth).Seconds()-u.gcCPUSecond)
	if err = b.tracedSave(path, ds); err != nil {
		return nil, nil, err
	}
	b.layers.seconds("phase.campaign_s", time.Since(t0))
	return f, ds, nil
}

// executeLedger records the measurement engine's resource use: process
// CPU, GC CPU, and heap allocations per recorded flow, plus the visit
// outcomes.
func (b *bench) executeLedger(u usage, ds *dataset) {
	flows := float64(flowCount(ds))
	b.layers.seconds("core.execute_cpu_s", u.cpu)
	b.layers.add("runtime.execute_gc_cpu_s", "s", u.gcCPUSecond)
	b.layers.add("core.execute_alloc_bytes_per_flow", "B", ratio(float64(u.allocBytes), flows))
	b.layers.add("core.execute_allocs_per_flow", "count", ratio(float64(u.allocObjs), flows))
	attempts, ok, failed, quarantined := 0, 0, 0, 0
	for _, run := range ds.Runs {
		for _, o := range run.Outcomes {
			attempts += o.Attempts
			switch o.Status {
			case outcomeOK:
				ok++
			case outcomeFailed:
				failed++
			case outcomeQuarantined:
				quarantined++
			}
		}
	}
	b.layers.add("core.visit_attempts", "count", float64(attempts))
	b.layers.add("core.channels_failed", "count", float64(failed))
	b.layers.add("core.channels_quarantined", "count", float64(quarantined))
	b.layers.add("core.useful_visit_ratio", "ratio", ratio(float64(ok), float64(attempts)))
}

// tracedSave is the timed snapshot write of a traced job.
func (b *bench) tracedSave(path string, ds *dataset) error {
	var size int64
	err := b.stage("store.snapshot_save_s", func() (err error) {
		size, err = saveSnapshot(path, ds)
		return err
	})
	b.layers.add("store.snapshot_bytes_per_flow", "B", ratio(float64(size), float64(flowCount(ds))))
	return err
}

// tracedDigest is Digest with its time and allocations per flow recorded.
func (b *bench) tracedDigest(ds *dataset) (d string, err error) {
	u0 := readUsage()
	err = b.stage("store.digest_s", func() (err error) {
		d, err = digest(ds)
		return err
	})
	b.layers.add("store.digest_alloc_bytes_per_flow", "B",
		ratio(float64(u0.since().allocBytes), float64(flowCount(ds))))
	return d, err
}

// runFleetReport is the analyst's job on a 4-shard fleet. Set-up measures
// the fleet: four `hbbtv-measure -shard i/4 -snapshot FILE` collectors, two
// at a time on the two cores, each one set-up sample, and the reference
// campaign that `hbbtv-merge -verify` compares with. The job is
// `hbbtv-merge -verify` (load with dedup, merge, digest, merged snapshot
// write) followed by `hbbtv-analyze -t all` on the merged snapshot. The
// run measures fleetsPerRun fleets, each on its own seed.
func runFleetReport(b *bench) error {
	scale := b.cfg.scale
	shardPaths := make([]string, fleetShards)
	for i := range shardPaths {
		shardPaths[i] = b.path(fmt.Sprintf("shard%d.snap", i))
	}
	mergedPath := b.path("merged.snap")
	jobs := 0
	for k := 0; k < fleetsPerRun && b.failed == 0; k++ {
		refDigest, err := b.measureFleet(subSeed(b.cfg.seed, k), scale, shardPaths)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		newJob := b.fleetJob(shardPaths, mergedPath, refDigest)
		if k == 0 {
			jobs = b.loop(b.cfg.seconds/fleetsPerRun, newJob)
		} else {
			b.repeat(jobs, newJob)
		}
	}
	return nil
}

// fleetJob makes the fleet_report jobs on one measured fleet. The fleet's
// first report must equal a Parallelism 1 analysis of the same dataset,
// and every later report the first.
func (b *bench) fleetJob(shardPaths []string, mergedPath, refDigest string) func(int) job {
	var firstReport []byte
	return func(int) job {
		var d string
		var m *dataset
		var out []byte
		return job{
			run: func(traced bool) (flows int, err error) {
				stage := b.stage
				if !traced {
					stage = untimed
				}
				t0 := time.Now()
				dd := newDedup()
				shards := make([]*dataset, len(shardPaths))
				if err := stage("store.load_dedup_s", func() (err error) {
					for i, p := range shardPaths {
						if shards[i], err = loadDataset(p, dd); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return 0, err
				}
				if err := stage("store.merge_shards_s", func() (err error) {
					m, err = mergeShards(shards)
					return err
				}); err != nil {
					return 0, err
				}
				if traced {
					b.layers.add("store.dedup_blob_ratio", "ratio", dedupBlobRatio(dd))
					d, err = b.tracedDigest(m)
					if err == nil {
						err = b.tracedSave(mergedPath, m)
					}
				} else if d, err = digest(m); err == nil {
					_, err = saveSnapshot(mergedPath, m)
				}
				if err != nil {
					return 0, err
				}
				if traced {
					b.layers.seconds("phase.merge_s", time.Since(t0))
				}
				// The analyst's report starts from the merged file, in a
				// new process; see the resume in runChaosResume.
				t0 = time.Now()
				shards, m = nil, nil
				runtime.GC()
				if err := stage("store.snapshot_load_s", func() (err error) {
					m, err = loadDataset(mergedPath, nil)
					return err
				}); err != nil {
					return 0, err
				}
				var res *results
				if err := stage("analyze.all_s", func() (err error) {
					res, err = analyze(m, 2, nil, nil)
					return err
				}); err != nil {
					return 0, err
				}
				if err := stage("render.all_s", func() (err error) {
					out, err = render(res)
					return err
				}); err != nil {
					return 0, err
				}
				if traced {
					b.layers.seconds("phase.report_s", time.Since(t0))
				}
				return flowCount(m), nil
			},
			check: func(traced bool) error {
				if err := checkEqual("merged digest vs single-process Shards 4 reference", d, refDigest); err != nil {
					return err
				}
				if traced {
					if err := b.sectionLedger(m); err != nil {
						return err
					}
				}
				if firstReport != nil {
					return checkSameReport(out, firstReport)
				}
				firstReport = out
				res, err := analyze(m, 1, nil, nil)
				if err != nil {
					return err
				}
				serial, err := render(res)
				if err != nil {
					return err
				}
				return checkSameReport(out, serial)
			},
		}
	}
}

// measureFleet writes the shard snapshots of a 4-shard fleet on seed to
// paths, two collectors at a time, recording each collector's time as a
// set-up sample, and returns the digest of the single-process reference
// campaign.
func (b *bench) measureFleet(seed int64, scale float64, paths []string) (string, error) {
	took := make([]time.Duration, fleetShards)
	errs := make([]error, fleetShards)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				w := startWatch()
				errs[i] = measureShard(seed, scale, i, paths[i])
				took[i] = w.busy()
			}
		}()
	}
	for i := 0; i < fleetShards; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for i := range took {
		if errs[i] != nil {
			return "", fmt.Errorf("shard %d: %w", i, errs[i])
		}
		b.e2e.seconds("setup_s", took[i])
	}
	t0 := time.Now()
	// hbbtv-merge -verify's reference: the same study measured in one
	// process with Parallelism 2 and Shards 4.
	ref, err := fleetReference(seed, scale)
	if err != nil {
		return "", fmt.Errorf("fleet reference: %w", err)
	}
	logf("fleet on seed %d: collectors %.3f %.3f %.3f %.3fs, reference campaign %.3fs", seed,
		took[0].Seconds(), took[1].Seconds(), took[2].Seconds(), took[3].Seconds(), time.Since(t0).Seconds())
	return ref, nil
}

// untimed has stage's signature and just runs fn.
func untimed(_ string, fn func() error) error { return fn() }

func measureShard(seed int64, scale float64, shard int, path string) error {
	s, err := newStudy(fleetOptions(seed, scale))
	if err != nil {
		return err
	}
	if _, err := selectChannels(s); err != nil {
		return err
	}
	ds, err := executeShard(s, shard)
	if err != nil {
		return err
	}
	_, err = saveSnapshot(path, ds)
	return err
}

func fleetReference(seed int64, scale float64) (string, error) {
	s, err := newStudy(fleetReferenceOptions(seed, scale))
	if err != nil {
		return "", err
	}
	if _, err := selectChannels(s); err != nil {
		return "", err
	}
	ds, err := executeRuns(s)
	if err != nil {
		return "", err
	}
	return digest(ds)
}

// sectionLedger times the analysis layers one by one on the merged
// dataset: the index build on its own, then each section as a
// one-section AnalyzeContext minus the index build that call reports
// through the engine's own telemetry.
func (b *bench) sectionLedger(m *dataset) error {
	var rows, urls int
	if err := b.layers.timed("store.index_build_s", func() (err error) {
		rows, urls, err = buildIndex(m)
		return err
	}); err != nil {
		return err
	}
	b.layers.add("store.index_url_dedup_ratio", "ratio", ratio(float64(rows), float64(urls)))
	for _, s := range allSections() {
		total, index, err := analyzeIndexTime(m, s)
		if err != nil {
			return err
		}
		b.layers.seconds("analyze."+string(s)+"_s", total-index)
	}
	return nil
}

// runChaosResume is the crash-safe collector under faults: set-up builds
// the faulty, instrumented study; the job runs the funnel and
// ExecuteResumable with a fresh journal fsync'd every cell, writes the
// snapshot, then resumes a second study from the finished journal — what
// `hbbtv-measure -resume` costs. A job that repeats the inputs of the one
// before (see inputSet) must write its snapshot byte for byte.
func runChaosResume(b *bench) error {
	scale := b.cfg.scale
	journal, snap := b.path("chaos.journal"), b.path("chaos.snap")
	var firstDigest, firstHash string
	b.loop(b.cfg.seconds, func(i int) job {
		seed := subSeed(b.cfg.seed, b.inputSet(i))
		if i == 0 || b.inputSet(i) != b.inputSet(i-1) {
			firstDigest, firstHash = "", ""
		}
		var s *study
		var f *funnel
		var resumed *dataset
		return job{
			setup: func() (err error) {
				if err := os.Remove(journal); err != nil && !errors.Is(err, fs.ErrNotExist) {
					return err
				}
				s, err = b.buildStudy(func() options { return chaosOptions(seed, scale) })
				return err
			},
			run: func(traced bool) (flows int, err error) {
				stage := b.stage
				if !traced {
					stage = untimed
				}
				t0 := time.Now()
				if err := stage("core.funnel_s", func() (err error) {
					f, err = selectChannels(s)
					return err
				}); err != nil {
					return 0, err
				}
				var ds *dataset
				u0 := readUsage()
				if err := stage("core.execute_s", func() (err error) {
					ds, err = executeResumable(s, journal, false)
					return err
				}); err != nil {
					return 0, err
				}
				flows = flowCount(ds)
				if traced {
					b.executeLedger(u0.since(), ds)
					b.telemetryLedger(ds, journal)
					err = b.tracedSave(snap, ds)
					b.layers.seconds("phase.campaign_s", time.Since(t0))
				} else {
					_, err = saveSnapshot(snap, ds)
				}
				if err != nil {
					return 0, err
				}
				// The resume is a new process in the field: nothing of the
				// first study survives but the journal. Collecting the
				// first study here keeps the timing of concurrent GC out of
				// the job's peak RSS.
				t0 = time.Now()
				s, ds = nil, nil
				runtime.GC()
				var s2 *study
				if err := stage("core.new_study_s", func() (err error) {
					s2, err = newStudy(chaosOptions(seed, scale))
					return err
				}); err != nil {
					return 0, err
				}
				if err := stage("core.funnel_s", func() error {
					_, err := selectChannels(s2)
					return err
				}); err != nil {
					return 0, err
				}
				if err := stage("store.journal_replay_s", func() (err error) {
					resumed, err = executeResumable(s2, journal, true)
					return err
				}); err != nil {
					return 0, err
				}
				if traced {
					b.layers.seconds("phase.resume_s", time.Since(t0))
				}
				return flows, nil
			},
			check: func(traced bool) error {
				ds, err := loadDataset(snap, nil)
				if err != nil {
					return err
				}
				if err := checkOutcomes(ds, f, runCount(), true); err != nil {
					return err
				}
				if err := checkDegraded(ds); err != nil {
					return err
				}
				if traced {
					cells, err := journalCells(journal)
					if err != nil {
						return err
					}
					b.layers.add("store.journal_cells", "count", float64(cells))
				}
				h, err := fileHash(snap)
				if err != nil {
					return err
				}
				if firstDigest == "" {
					if firstDigest, err = digest(ds); err != nil {
						return err
					}
					firstHash = h
				} else if err := checkEqual("chaos snapshot SHA-256", h, firstHash); err != nil {
					return err
				}
				rd, err := digest(resumed)
				if err != nil {
					return err
				}
				return checkEqual("resumed digest vs campaign digest", rd, firstDigest)
			},
		}
	})
	return nil
}

// telemetryLedger records the program's own counters for the faulty
// campaign and the size of its journal.
func (b *bench) telemetryLedger(ds *dataset, journal string) {
	if ds.Telemetry != nil {
		b.layers.add("faults.injected", "count", float64(ds.Telemetry.Counters["core_faults_injected"]))
	}
	if ds.Trace != nil {
		b.layers.add("telemetry.spans", "count", float64(len(ds.Trace.Spans)))
		b.layers.add("telemetry.spans_dropped", "count", float64(ds.Trace.DroppedSpans()))
	}
	if st, err := os.Stat(journal); err == nil {
		b.layers.add("store.journal_bytes", "B", float64(st.Size()))
	}
}
