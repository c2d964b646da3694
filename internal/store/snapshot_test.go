package store

import (
	"bytes"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// loadBoth saves ds in both formats and loads both back through Load's
// format sniffing, failing on any error.
func loadBoth(t *testing.T, ds *Dataset) (fromJSON, fromSnap *Dataset) {
	t.Helper()
	var jb, sb bytes.Buffer
	if err := Save(&jb, ds, FormatJSON); err != nil {
		t.Fatal(err)
	}
	if err := Save(&sb, ds, FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	var err error
	if fromJSON, err = Load(&jb); err != nil {
		t.Fatalf("load json: %v", err)
	}
	if fromSnap, err = Load(&sb); err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	return fromJSON, fromSnap
}

// TestSnapshotMatchesJSONLoad: loading a snapshot must produce the exact
// in-memory dataset loading the gzip-JSON form produces, on a fixture that
// exercises overlays, cookies, storage, logs, and multi-value Set-Cookie.
func TestSnapshotMatchesJSONLoad(t *testing.T) {
	fromJSON, fromSnap := loadBoth(t, persistedDataset())
	if !reflect.DeepEqual(fromJSON, fromSnap) {
		t.Fatalf("snapshot load differs from json load:\njson: %+v\nsnap: %+v", fromJSON, fromSnap)
	}
}

// TestSnapshotFlowEdgeCases drives the flow record encoder through its
// corners: the zero time, URLs the decomposed fast path must reject,
// multi-value headers, shared bodies, and an unattributed flow.
func TestSnapshotFlowEdgeCases(t *testing.T) {
	t0 := time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC)
	mk := func(raw string) *proxy.Flow {
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return &proxy.Flow{
			Time: t0, Method: "GET", URL: u, StatusCode: 200,
			RequestHeaders:  http.Header{},
			ResponseHeaders: http.Header{"Content-Type": {"text/html"}},
		}
	}

	zeroTime := mk("http://a.example.de/px")
	zeroTime.Time = time.Time{}

	// %2F in the path forces RawPath on re-parse, so the four-field
	// reassembly is not byte-faithful and the encoder must fall back to
	// storing the full URL string.
	escaped := mk("http://a.example.de/a%2Fb?x=1")

	fragment := mk("http://a.example.de/page#top")

	multi := mk("https://b.example.de/app")
	multi.HTTPS = true
	multi.RequestHeaders.Add("Accept", "text/html")
	multi.RequestHeaders.Add("Accept", "image/gif")
	multi.ResponseHeaders.Add("Set-Cookie", "a=1; Path=/")
	multi.ResponseHeaders.Add("Set-Cookie", "b=2; Path=/")
	multi.ResponseBody = []byte("<html>shared</html>")

	shared := mk("https://b.example.de/app2")
	shared.ResponseBody = []byte("<html>shared</html>") // same blob as multi
	shared.RequestBody = []byte("post-data")
	shared.Channel, shared.ChannelID = "B", "sid-2"

	unattributed := mk("http://t.example.de/beacon")
	unattributed.StatusCode = 504
	unattributed.ResponseSize = 1 << 20

	flows := []*proxy.Flow{zeroTime, escaped, fragment, multi, shared, unattributed}
	for i, f := range flows {
		f.ID = int64(i + 1)
	}
	ds := &Dataset{Runs: []*RunData{{Name: RunRed, Date: t0, Flows: flows}}}

	fromJSON, fromSnap := loadBoth(t, ds)
	if !reflect.DeepEqual(fromJSON, fromSnap) {
		for i := range fromJSON.Runs[0].Flows {
			a, b := fromJSON.Runs[0].Flows[i], fromSnap.Runs[0].Flows[i]
			if !reflect.DeepEqual(a, b) {
				t.Errorf("flow %d differs:\njson: %#v\nsnap: %#v", i, a, b)
			}
		}
		t.Fatal("snapshot load differs from json load")
	}

	// The digest must not care which format the dataset came through.
	want, err := ds.Digest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fromSnap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("snapshot-loaded digest %s != original %s", got, want)
	}
}

// TestSnapshotRejectsCorruption: version, magic, and truncation must fail
// loudly, never panic or return a half-dataset.
func TestSnapshotRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, persistedDataset(), FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := LoadSnapshot(strings.NewReader("nonsense")); err == nil {
		t.Error("bad magic accepted")
	}

	wrongVer := bytes.Clone(raw)
	wrongVer[4] = 99
	if _, err := LoadSnapshot(bytes.NewReader(wrongVer)); err == nil {
		t.Error("wrong version accepted")
	}

	// The five header bytes alone are a truncated snapshot — the end
	// marker is missing — and anything cut mid-section must fail too.
	if _, err := LoadSnapshot(bytes.NewReader(raw[:5])); err == nil {
		t.Error("header-only snapshot accepted despite missing end marker")
	}
	for _, cut := range []int{7, len(raw) / 2, len(raw) - 1} {
		if _, err := LoadSnapshot(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}

	flipped := bytes.Clone(raw)
	flipped[6] ^= 0xff // inside the string table section header
	if _, err := LoadSnapshot(bytes.NewReader(flipped)); err == nil {
		t.Log("section-header flip still decoded (length happened to stay plausible)")
	}
}

// TestSnapshotSkipsUnknownSection: a snapshot carrying a section tag this
// reader does not know must still load — the length prefix makes unknown
// sections skippable, which is the format's forward-compatibility story.
func TestSnapshotSkipsUnknownSection(t *testing.T) {
	ds := persistedDataset()
	var buf bytes.Buffer
	if err := Save(&buf, ds, FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	// Append an unknown trailing section: tag 200, 3-byte payload.
	buf.Write([]byte{200, 3, 0xde, 0xad, 0xbf})
	got, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatalf("unknown section broke the load: %v", err)
	}
	if len(got.Runs) != len(ds.Runs) {
		t.Fatalf("got %d runs, want %d", len(got.Runs), len(ds.Runs))
	}
}
