// Command perfbench is the repository's pipeline benchmark. It runs one
// workload built from the user-facing jobs — a collector campaign, a
// fleet merge plus analysis, or a crash-safe chaos campaign with resume —
// on inputs derived from a seed until its timed jobs add up to a budget,
// checks every job's output, and prints one JSON result line. From the
// repository root:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 24 --trace 0
//
// run.sh builds this module into .bench_build and runs it. With -trace 0 the
// result carries the end-to-end metrics, measured on untraced jobs; with
// -trace 1 it carries the per-layer ledger from traced jobs, interleaved
// with untraced ones so the tracing overhead is measured too. BENCHMARK.json
// at the repository root lists every metric and the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metricName struct{ name, unit string }

// endToEnd are the metrics a user of the job sees. A run measures jobs on
// many study seeds derived from its seed (see subSeed), whose datasets
// differ in size by up to 2x, so throughput is per flow: flows per second
// of job time. The job time itself is in the ledger (bench.job_s). Peak
// RSS is not per flow: on chaos_resume most of it does not grow with the
// flows.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"flows_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is the traced ledger. A layer that a workload does not
// exercise reports 0 there; BENCHMARK.json maps each layer to the
// workload and end-to-end metric it should move.
var perLayer = func() []metricName {
	names := []metricName{
		{"phase.campaign_s", "s"},
		{"phase.merge_s", "s"},
		{"phase.report_s", "s"},
		{"phase.resume_s", "s"},
		{"synth.build_s", "s"},
		{"core.new_study_s", "s"},
		{"core.funnel_s", "s"},
		{"core.execute_s", "s"},
		{"core.execute_cpu_s", "s"},
		{"headend.busy_s", "s"},
		{"headend.requests", "count"},
		{"webos-proxy-hostnet.busy_s", "s"},
		{"core.execute_alloc_bytes_per_flow", "B"},
		{"core.execute_allocs_per_flow", "count"},
		{"runtime.execute_gc_cpu_s", "s"},
		{"store.snapshot_save_s", "s"},
		{"store.snapshot_bytes_per_flow", "B"},
		{"store.load_dedup_s", "s"},
		{"store.dedup_blob_ratio", "ratio"},
		{"store.merge_shards_s", "s"},
		{"store.digest_s", "s"},
		{"store.digest_alloc_bytes_per_flow", "B"},
		{"store.snapshot_load_s", "s"},
		{"store.index_build_s", "s"},
		{"store.index_url_dedup_ratio", "ratio"},
	}
	for _, s := range allSections() {
		names = append(names, metricName{"analyze." + string(s) + "_s", "s"})
	}
	return append(names,
		metricName{"analyze.all_s", "s"},
		metricName{"render.all_s", "s"},
		metricName{"core.visit_attempts", "count"},
		metricName{"core.channels_failed", "count"},
		metricName{"core.channels_quarantined", "count"},
		metricName{"core.useful_visit_ratio", "ratio"},
		metricName{"faults.injected", "count"},
		metricName{"telemetry.spans", "count"},
		metricName{"telemetry.spans_dropped", "count"},
		metricName{"store.journal_bytes", "B"},
		metricName{"store.journal_cells", "count"},
		metricName{"store.journal_replay_s", "s"},
		metricName{"bench.job_s", "s"},
		metricName{"bench.peak_rss_kb_per_flow", "KiB"},
		metricName{"bench.job_wall_s", "s"},
		metricName{"bench.job_stolen_s", "s"},
		metricName{"bench.trace_overhead_pct", "%"},
		metricName{"bench.stage_gap_pct", "%"},
	)
}()

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	scale   float64
	dir     string // scratch directory for the job's files
}

// workload is a runner and the input scale of its timed jobs.
type workload struct {
	run   func(*bench) error
	scale float64
}

// workloads maps a workload name to its runner. The inputs are smaller than
// the paper's world (scale 1.0: 396 analyzed channels, ~545k flows per
// campaign) so that a run measures many short jobs on many seeds, and one
// slow job or one unusual seed barely moves its medians; paper-scale jobs
// take 5–10 s each. A quarter of the paper's world has about 100 analyzed
// channels and 150k flows per campaign. chaos_resume needs half of it:
// at a quarter, about one seed in forty has no visit that fails for good,
// and its output check wants failures. The paper-scale funnel is still
// checked on every campaign run.
var workloads = map[string]workload{
	"campaign":     {runCampaign, 0.25},
	"fleet_report": {runFleetReport, 0.25},
	"chaos_resume": {runChaosResume, 0.5},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: campaign, fleet_report or chaos_resume")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 24, "seconds of timed jobs to measure")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 the traced per-layer ledger")
	workdir := flag.String("workdir", ".bench_build", "directory for the benchmark's scratch files")
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload campaign|fleet_report|chaos_resume, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		cfg: config{
			seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			trace: *trace == 1, scale: wl.scale, dir: dir,
		},
		e2e: newLedger(), layers: newLedger(),
	}
	logf("%s seed %d scale %g on %d CPUs, GOMAXPROCS %d, %s", *workload, *seed, wl.scale,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	runErr := wl.run(b)
	os.RemoveAll(dir)
	if runErr != nil {
		b.fail("%s: %v", *workload, runErr)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed}
	if b.cfg.trace {
		b.traceSummary()
		res.Metrics = b.layers.metrics(perLayer)
	} else {
		res.Metrics = b.e2e.metrics(endToEnd)
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one invocation's state: the end-to-end ledger (untraced jobs
// only), the per-layer ledger (traced jobs), job counts and failed checks.
type bench struct {
	cfg       config
	e2e       *ledger
	layers    *ledger
	attempted int
	failed    int
	problems  []string
	stageSum  time.Duration // leaf stage time of the current traced job
}

// logf writes a progress line to standard error; standard output carries
// only the result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// fail records a failed output check; any failure makes the run incorrect.
func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) path(name string) string { return filepath.Join(b.cfg.dir, name) }

// job is one timed unit of work. setup runs before the timed phase and
// records its own setup_s samples; run is the timed job and returns the
// flows it handled; check verifies its outputs outside the timed phase.
type job struct {
	setup func() error
	run   func(traced bool) (flows int, err error)
	check func(traced bool) error
}

// loop runs jobs back to back (a closed loop with one client) until the
// timed jobs add up to budget, and returns how many it ran; newJob(i)
// makes the i-th job. In trace mode traced jobs alternate with untraced
// ones and the loop ends on a traced job. Only job time counts against
// the budget, so a run has the same number of jobs however long its
// set-up and checks take.
func (b *bench) loop(budget time.Duration, newJob func(i int) job) int {
	var spent time.Duration
	for i := 0; ; i++ {
		wall, ok := b.next(i, newJob)
		if !ok {
			return i + 1
		}
		if spent += wall; spent >= budget && (!b.cfg.trace || i%2 == 1) {
			return i + 1
		}
	}
}

// repeat runs n jobs back to back, like loop.
func (b *bench) repeat(n int, newJob func(i int) job) {
	for i := 0; i < n; i++ {
		if _, ok := b.next(i, newJob); !ok {
			return
		}
	}
}

// next runs the i-th job, traced on odd i in trace mode, and returns its
// wall time and whether it succeeded. Each job starts from a collected
// heap with a cleared peak-RSS mark, so peak RSS covers the timed job
// alone.
func (b *bench) next(i int, newJob func(i int) job) (time.Duration, bool) {
	b.attempted++
	wall, err := b.once(newJob(i), b.cfg.trace && i%2 == 1)
	if err != nil {
		b.failed++
		b.fail("job %d: %v", i, err)
		return wall, false
	}
	return wall, true
}

// once runs one job and returns its wall time.
func (b *bench) once(j job, traced bool) (time.Duration, error) {
	if j.setup != nil {
		if err := j.setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
	}
	settle()
	if !resetPeakRSS() {
		logf("cannot reset the peak-RSS mark; peak RSS includes set-up")
	}
	startMB, err := peakRSSMB()
	if err != nil {
		return 0, err
	}
	b.stageSum = 0
	u0 := readUsage()
	w := startWatch()
	flows, err := j.run(traced)
	wall, stolen := w.wall(), w.stolen()
	cpu := u0.since().cpu
	if err != nil {
		return wall, err
	}
	mb, err := peakRSSMB()
	if err != nil {
		return wall, err
	}
	dur := wall - stolen
	name := "job_s"
	if traced {
		name = "traced_job_s"
	}
	b.e2e.seconds(name, dur)
	logf("%s %.3fs (wall %.3fs, stolen %.3fs per CPU, CPU %.3fs), %d flows, RSS %.0f MiB at start, peak %.0f MiB",
		name, dur.Seconds(), wall.Seconds(), stolen.Seconds(), cpu.Seconds(), flows, startMB, mb)
	if flows == 0 {
		return wall, fmt.Errorf("job handled no flows")
	}
	if traced {
		b.layers.add("bench.stage_gap_pct", "%", 100*ratio((wall-b.stageSum).Seconds(), wall.Seconds()))
	} else {
		b.e2e.seconds("job_wall_s", wall)
		b.e2e.seconds("job_stolen_s", stolen)
		b.e2e.add("flows_per_s", "1/s", float64(flows)/dur.Seconds())
		b.e2e.add("peak_rss_mb", "MiB", mb)
		b.e2e.add("peak_rss_kb_per_flow", "KiB", mb*1024/float64(flows))
	}
	t0 := time.Now()
	err = j.check(traced)
	logf("checks %.3fs", time.Since(t0).Seconds())
	return wall, err
}

// stage times one leaf stage of a traced job into the per-layer ledger;
// bench.stage_gap_pct reports how much of the traced job's wall time the
// leaf stages leave unaccounted.
func (b *bench) stage(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	b.stageSum += d
	b.layers.seconds(name, d)
	return err
}

// traceSummary derives the tracing overhead from the interleaved traced
// and untraced jobs, and reports the untraced jobs' time and peak RSS
// per flow.
func (b *bench) traceSummary() {
	plain, traced := b.e2e.median("job_s"), b.e2e.median("traced_job_s")
	b.layers.add("bench.trace_overhead_pct", "%", 100*ratio(traced-plain, plain))
	b.layers.add("bench.job_s", "s", plain)
	b.layers.add("bench.peak_rss_kb_per_flow", "KiB", b.e2e.median("peak_rss_kb_per_flow"))
	b.layers.add("bench.job_wall_s", "s", b.e2e.median("job_wall_s"))
	b.layers.add("bench.job_stolen_s", "s", b.e2e.median("job_stolen_s"))
}
