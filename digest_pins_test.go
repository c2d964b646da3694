package hbbtvlab

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
)

// digestPins are the studies whose Dataset.Digest is pinned across
// commits. Every other digest suite compares two runs of the same binary,
// so a change that alters recorded bytes consistently across worker
// counts passes all of them; these pins catch it. The fault-injected
// configs matter: redirect chains, retries and 5xx bursts exercise request
// paths a clean world never takes.
var digestPins = []struct {
	name string
	opts func() Options
}{
	{"seed7_scale0.05_j2", func() Options {
		return Options{Seed: 7, Scale: 0.05, Parallelism: 2}
	}},
	{"chaos_j2", func() Options { return chaosOptions(2) }},
	{"seed5000_scale0.3_j2_faults0.25_cli_retry", func() Options {
		// The retry policy hbbtv-measure applies when faults are on.
		return Options{
			Seed: 5000, Scale: 0.3, Parallelism: 2,
			Faults: &faults.Config{Rate: 0.25},
			Retry: core.RetryPolicy{
				MaxAttempts:     3,
				Backoff:         2 * time.Second,
				VisitDeadline:   5 * time.Minute,
				QuarantineAfter: 3,
			},
		}
	}},
}

// TestDigestPins compares each pinned study's digest with
// testdata/digest_pins.golden. Regenerate with -update only for a
// deliberate, documented digest change.
func TestDigestPins(t *testing.T) {
	var got strings.Builder
	for _, pin := range digestPins {
		ds := runChaosStudy(t, pin.opts())
		d, err := ds.Digest()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %s\n", pin.name, d)
	}
	golden := filepath.Join("testdata", "digest_pins.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("pinned digests changed:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
