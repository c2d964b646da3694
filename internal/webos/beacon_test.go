package webos

import (
	"net/http"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/headend"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// newBeaconTV returns a TV running an app whose one beacon hits a cookie-
// setting tracker pixel with a site parameter, wired TV -> recorder ->
// hostnet -> headend tracker like a measurement shard. The beacon has
// fired once, so the tracker's cookies are in the jar and every later
// firing is the steady-state request: two jar cookies out, none back.
func newBeaconTV(tb testing.TB) (*TV, *proxy.Recorder) {
	tb.Helper()
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 17, 0, 0, 0, time.UTC))
	in := hostnet.New()
	headend.NewTrackerService(headend.Tracker{
		Domain: "tracker.example", CookieName: "tid", CookieKind: headend.CookieID,
	}, vc, 1).Install(in)
	markup, err := (&appmodel.Document{
		Title: "Beacon",
		App: &appmodel.AppSpec{Beacons: []appmodel.BeaconSpec{{
			URL:             "http://px.tracker.example/px",
			IntervalSeconds: 60,
			Params:          map[string]string{"c": "{channel}", "uid": "{user}", "t": "{localtime}"},
		}}},
	}).RenderHTML()
	if err != nil {
		tb.Fatal(err)
	}
	in.HandleFunc("hbbtv.beacon.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/vnd.hbbtv.xhtml+xml")
		_, _ = w.Write(markup)
	})
	rec := proxy.NewRecorder(&hostnet.Transport{Net: in, Clock: vc}, vc)
	tv := New(Config{Clock: vc, Transport: rec, Seed: 3, OnSwitch: rec.SwitchChannel})
	tv.PowerOn()
	if err := tv.TuneTo(&dvb.Service{
		ServiceID: 9, Name: "BeaconTV",
		AITSection: dvb.MustEncodeAIT(&dvb.AIT{Applications: []dvb.Application{{
			OrganizationID: 1, ApplicationID: 1, Control: dvb.ControlAutostart,
			URLBase: "http://hbbtv.beacon.example/", InitialPath: "index.html",
		}}}),
	}); err != nil {
		tb.Fatal(err)
	}
	tv.fireBeacon(0)
	flows := rec.Flows()
	last := flows[len(flows)-1]
	if last.StatusCode != http.StatusOK || len(tv.jar.All()) != 2 {
		tb.Fatalf("beacon fixture: status %d, jar %v", last.StatusCode, tv.jar.All())
	}
	return tv, rec
}

// BenchmarkBeaconPath fires one warmed beacon per op through the whole
// in-process request path: URL expansion, the TV's exchange and jar, the
// recording proxy, the virtual network, and the tracker's handler.
func BenchmarkBeaconPath(b *testing.B) {
	tv, rec := newBeaconTV(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tv.fireBeacon(0)
		if i%4096 == 4095 {
			// Bound the recorder's memory; the reset is outside the path.
			b.StopTimer()
			rec.Reset()
			b.StartTimer()
		}
	}
}

// TestBeaconAllocations pins the allocation count of one steady-state
// beacon. The bound is a hard ceiling: a change that routes the TV back
// through net/http.Client's header copying, or makes a tracker re-parse
// the query or cookies into maps and http.Cookie values, fails here
// before any benchmark does.
func TestBeaconAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; the pin only holds in normal builds")
	}
	tv, _ := newBeaconTV(t)
	const ceiling = 24
	if got := testing.AllocsPerRun(200, func() { tv.fireBeacon(0) }); got > ceiling {
		t.Errorf("one beacon allocates %.1f times, ceiling %d", got, ceiling)
	}
}
