package main

// Output checks. Each one holds for every seed: they compare a job's
// output with another computation of the same thing (a reload, a
// reference topology, a serial analysis), or with counts the paper's
// funnel fixes at scale 1.0, never with a value recorded for one seed.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
)

// Paper-scale funnel: 3,575 received services, 396 analyzed channels.
const (
	paperReceived = 3575
	paperFinal    = 396
)

func checkFunnel(f *funnel, received, final int) error {
	if f.Received != received || f.FinalCount() != final {
		return fmt.Errorf("funnel %d received -> %d final, want %d -> %d",
			f.Received, f.FinalCount(), received, final)
	}
	return nil
}

// checkOutcomes verifies that every (run, selected channel) pair has
// exactly one outcome and that the dataset has every run. With
// allowFailed false no visit may have failed or been quarantined.
func checkOutcomes(ds *dataset, f *funnel, runs int, allowFailed bool) error {
	if len(ds.Runs) != runs {
		return fmt.Errorf("%d runs, want %d", len(ds.Runs), runs)
	}
	for _, run := range ds.Runs {
		seen := make(map[string]int, len(run.Outcomes))
		for _, o := range run.Outcomes {
			seen[o.Channel]++
			if !allowFailed && (o.Status == outcomeFailed || o.Status == outcomeQuarantined) {
				return fmt.Errorf("run %s: channel %s %s", run.Name, o.Channel, o.Status)
			}
		}
		for _, svc := range f.Final {
			if n := seen[svc.Name]; n != 1 {
				return fmt.Errorf("run %s: channel %s has %d outcomes, want 1", run.Name, svc.Name, n)
			}
		}
		if len(run.Outcomes) != len(f.Final) {
			return fmt.Errorf("run %s: %d outcomes for %d channels", run.Name, len(run.Outcomes), len(f.Final))
		}
	}
	return nil
}

// checkDegraded verifies that faults really ran: some visits ended failed
// and some channels needed more than one attempt.
func checkDegraded(ds *dataset) error {
	failed, retried := 0, 0
	for _, run := range ds.Runs {
		for _, o := range run.Outcomes {
			if o.Status == outcomeFailed {
				failed++
			}
			if o.Attempts > 1 {
				retried++
			}
		}
	}
	if failed == 0 || retried == 0 {
		return fmt.Errorf("faulty campaign has %d failed and %d retried visits, want both > 0", failed, retried)
	}
	return nil
}

func checkEqual(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: %s != %s", what, got, want)
	}
	return nil
}

// checkSameReport compares two rendered reports and names the first
// differing line.
func checkSameReport(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Errorf("report line %d: %q != %q", i+1, g[i], w[i])
		}
	}
	return fmt.Errorf("report has %d lines, want %d", len(g), len(w))
}

// reloadDigest loads a saved dataset and returns its Digest.
func reloadDigest(path string) (string, error) {
	ds, err := loadDataset(path, nil)
	if err != nil {
		return "", err
	}
	return digest(ds)
}

// fileHash is the SHA-256 of a file. Snapshots are deterministic, so two
// jobs of one seed must write identical files.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func flowCount(ds *dataset) int {
	n := 0
	for _, r := range ds.Runs {
		n += len(r.Flows)
	}
	return n
}
