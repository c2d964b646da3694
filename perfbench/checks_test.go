package main

// Each output check must pass on a correct output and fail on a perturbed
// one. The tests run at small scale; the paper-scale funnel counts are
// exercised by the benchmark itself.
//
//	go -C perfbench test ./...

import (
	"path/filepath"
	"testing"
	"time"
)

const testScale = 0.05

func measured(t *testing.T, opts options) (*funnel, *dataset) {
	t.Helper()
	s, err := newStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := selectChannels(s)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := executeRuns(s)
	if err != nil {
		t.Fatal(err)
	}
	return f, ds
}

func mustDigest(t *testing.T, ds *dataset) string {
	t.Helper()
	d, err := digest(ds)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// dropFlow removes the last flow of the last run that has one.
func dropFlow(t *testing.T, ds *dataset) {
	t.Helper()
	for i := len(ds.Runs) - 1; i >= 0; i-- {
		if r := ds.Runs[i]; len(r.Flows) > 0 {
			r.Flows = r.Flows[:len(r.Flows)-1]
			return
		}
	}
	t.Fatal("dataset has no flows")
}

func TestCampaignChecks(t *testing.T) {
	f, ds := measured(t, reliableOptions(7, testScale))
	if err := checkOutcomes(ds, f, runCount(), false); err != nil {
		t.Fatalf("correct campaign: %v", err)
	}
	if err := checkFunnel(f, f.Received, f.FinalCount()); err != nil {
		t.Fatal(err)
	}
	if checkFunnel(f, paperReceived, paperFinal) == nil {
		t.Error("funnel check accepted a small-scale funnel as paper scale")
	}

	path := filepath.Join(t.TempDir(), "c.snap")
	if _, err := saveSnapshot(path, ds); err != nil {
		t.Fatal(err)
	}
	want := mustDigest(t, ds)
	rd, err := reloadDigest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEqual("reloaded", rd, want); err != nil {
		t.Fatal(err)
	}
	dropFlow(t, ds)
	if checkEqual("reloaded", rd, mustDigest(t, ds)) == nil {
		t.Error("digest check missed a dropped flow")
	}

	run := ds.Runs[0]
	saved := run.Outcomes
	run.Outcomes = saved[1:]
	if checkOutcomes(ds, f, runCount(), false) == nil {
		t.Error("outcome check missed a dropped outcome")
	}
	run.Outcomes = append(append(saved[:0:0], saved...), saved[0])
	if checkOutcomes(ds, f, runCount(), false) == nil {
		t.Error("outcome check missed a duplicated outcome")
	}
	run.Outcomes = append(saved[:0:0], saved...)
	run.Outcomes[0].Status = outcomeFailed
	if checkOutcomes(ds, f, runCount(), false) == nil {
		t.Error("outcome check missed a failed visit in the reliable world")
	}
	if checkOutcomes(ds, f, runCount()+1, false) == nil {
		t.Error("outcome check missed a missing run")
	}
}

func TestFleetChecks(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < fleetShards; i++ {
		p := filepath.Join(dir, "shard"+string(rune('0'+i)))
		if err := measureShard(7, testScale, i, p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	ref, err := fleetReference(7, testScale)
	if err != nil {
		t.Fatal(err)
	}
	load := func(paths []string) []*dataset {
		dd := newDedup()
		var out []*dataset
		for _, p := range paths {
			ds, err := loadDataset(p, dd)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ds)
		}
		return out
	}
	merged, err := mergeShards(load(paths))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEqual("merged", mustDigest(t, merged), ref); err != nil {
		t.Fatalf("correct fleet: %v", err)
	}

	// A shard merged twice (in place of another) is refused or changes
	// the digest.
	twice, err := mergeShards(load([]string{paths[0], paths[0], paths[2], paths[3]}))
	if err == nil && checkEqual("merged", mustDigest(t, twice), ref) == nil {
		t.Error("fleet check accepted a shard merged twice")
	}
	shards := load(paths)
	dropFlow(t, shards[1])
	if m, err := mergeShards(shards); err == nil && checkEqual("merged", mustDigest(t, m), ref) == nil {
		t.Error("fleet check missed a dropped flow")
	}

	res, err := analyze(merged, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := render(res)
	if err != nil {
		t.Fatal(err)
	}
	res, err = analyze(merged, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := render(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSameReport(par, serial); err != nil {
		t.Fatalf("parallel vs serial report: %v", err)
	}
	perturbed := append([]byte(nil), par...)
	perturbed[len(perturbed)/2] ^= 1
	if checkSameReport(perturbed, serial) == nil {
		t.Error("report check missed a changed byte")
	}
	if checkSameReport(par[:len(par)-1], serial) == nil {
		t.Error("report check missed a truncated report")
	}
}

func TestChaosChecks(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j")
	s, err := newStudy(chaosOptions(7, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	f, err := selectChannels(s)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := executeResumable(s, journal, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOutcomes(ds, f, runCount(), true); err != nil {
		t.Fatalf("chaos campaign outcomes: %v", err)
	}
	if err := checkDegraded(ds); err != nil {
		t.Fatalf("chaos campaign: %v", err)
	}
	if checkOutcomes(ds, f, runCount(), false) == nil {
		t.Error("reliable-world outcome check accepted a degraded campaign")
	}
	s2, err := newStudy(chaosOptions(7, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := selectChannels(s2); err != nil {
		t.Fatal(err)
	}
	resumed, err := executeResumable(s2, journal, true)
	if err != nil {
		t.Fatal(err)
	}
	want := mustDigest(t, ds)
	if err := checkEqual("resumed", mustDigest(t, resumed), want); err != nil {
		t.Fatalf("correct resume: %v", err)
	}
	dropFlow(t, resumed)
	if checkEqual("resumed", mustDigest(t, resumed), want) == nil {
		t.Error("resume check missed a dropped flow")
	}

	_, reliable := measured(t, reliableOptions(7, 0.1))
	if checkDegraded(reliable) == nil {
		t.Error("fault check accepted a campaign without failures")
	}
}

// TestWorkloads runs every workload for one untraced and one traced job
// per input set at small scale and expects every check to pass.
func TestWorkloads(t *testing.T) {
	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			b := &bench{
				cfg:    config{seed: 3, seconds: time.Millisecond, trace: true, scale: testScale, dir: t.TempDir()},
				e2e:    newLedger(),
				layers: newLedger(),
			}
			if name == "chaos_resume" {
				b.cfg.scale = 0.1
			}
			if err := wl.run(b); err != nil {
				t.Fatal(err)
			}
			want := 2
			if name == "fleet_report" {
				want = 2 * fleetsPerRun
			}
			if len(b.problems) > 0 || b.attempted != want || b.failed != 0 {
				t.Fatalf("attempted %d, failed %d, problems %v", b.attempted, b.failed, b.problems)
			}
			for _, m := range []string{"job_s", "traced_job_s", "flows_per_s", "peak_rss_mb", "peak_rss_kb_per_flow"} {
				if b.e2e.median(m) <= 0 {
					t.Errorf("%s = %v", m, b.e2e.median(m))
				}
			}
		})
	}
}
