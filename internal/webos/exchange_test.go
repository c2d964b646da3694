package webos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
)

// hop is one scripted response of scriptRT.
type hop struct {
	status  int
	headers map[string][]string
	body    string
	err     error
}

// scriptRT is a RoundTripper that answers by URL from a script and logs
// every request it sees: method, URL, sorted headers and body.
type scriptRT struct {
	script map[string]hop
	log    strings.Builder
}

func (rt *scriptRT) RoundTrip(req *http.Request) (*http.Response, error) {
	fmt.Fprintf(&rt.log, "%s %s\n", req.Method, req.URL)
	keys := make([]string, 0, len(req.Header))
	for k := range req.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&rt.log, "  %s: %q\n", k, req.Header[k])
	}
	// A nil Body and http.NoBody both send nothing.
	if req.Body != nil {
		if b, _ := io.ReadAll(req.Body); len(b) > 0 {
			fmt.Fprintf(&rt.log, "  body=%q\n", b)
		}
	}
	h, ok := rt.script[req.URL.String()]
	if !ok {
		return nil, fmt.Errorf("unscripted %s", req.URL)
	}
	if h.err != nil {
		return nil, h.err
	}
	resp := &http.Response{
		Status:     fmt.Sprintf("%d %s", h.status, http.StatusText(h.status)),
		StatusCode: h.status,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader(h.body)),
		Request:    req,
	}
	for k, vv := range h.headers {
		resp.Header[k] = append([]string(nil), vv...)
	}
	return resp, nil
}

// exchangeCase is one scripted exchange: the initial request, the jar's
// starting cookies, and the responses by URL.
type exchangeCase struct {
	name        string
	method      string
	url         string
	referer     string
	contentType string
	body        string
	cookies     map[string][]*http.Cookie // by URL, set before the exchange
	script      map[string]hop
}

// outcome is everything one side of the differential observed.
type outcome struct {
	requests string
	status   int
	header   http.Header
	body     string
	err      string
	warnings string
}

// runExchange runs c through send, with the jar seeded from c.cookies.
func runExchange(t *testing.T, c exchangeCase, send func(*Jar, http.RoundTripper, *http.Request) (*http.Response, error)) outcome {
	t.Helper()
	jar := NewJar(clock.NewVirtual(time.Date(2023, 8, 21, 17, 0, 0, 0, time.UTC)))
	for u, cs := range c.cookies {
		jar.SetCookies(mustURL(t, u), cs)
	}
	rt := &scriptRT{script: c.script}
	var body io.Reader
	if c.body != "" {
		body = bytes.NewReader([]byte(c.body))
	}
	req, err := http.NewRequest(c.method, c.url, body)
	if err != nil {
		t.Fatal(err)
	}
	if c.contentType != "" {
		req.Header["Content-Type"] = []string{c.contentType}
	}
	if c.referer != "" {
		req.Header["Referer"] = []string{c.referer}
	}
	req.Header["User-Agent"] = []string{"differential"}

	// AddCookie logs a warning for every invalid byte it drops; both sides
	// must drop the same bytes.
	var warnings bytes.Buffer
	flags, w := log.Flags(), log.Writer()
	log.SetFlags(0)
	log.SetOutput(&warnings)
	resp, err := send(jar, rt, req)
	log.SetFlags(flags)
	log.SetOutput(w)

	out := outcome{requests: rt.log.String(), warnings: warnings.String()}
	if err != nil {
		var ue *url.Error
		if !errors.As(err, &ue) {
			t.Errorf("error %v is not a *url.Error", err)
		}
		out.err = err.Error()
	}
	if resp != nil {
		out.status = resp.StatusCode
		out.header = resp.Header
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			out.body = string(b)
		}
		resp.Body.Close()
	}
	return out
}

func redirect(status int, loc string) hop {
	return hop{status: status, headers: map[string][]string{"Location": {loc}}}
}

// TestExchangeMatchesHTTPClient runs scripted exchanges through
// net/http.Client (with the TV's jar) and through the TV's own exchange,
// and requires identical request logs, final responses, errors and
// cookie-sanitising warnings.
func TestExchangeMatchesHTTPClient(t *testing.T) {
	loop := map[string]hop{}
	for i := 0; i <= 11; i++ {
		loop[fmt.Sprintf("http://loop.example/%d", i)] = redirect(http.StatusFound, fmt.Sprintf("/%d", i+1))
	}
	cases := []exchangeCase{
		{
			name: "cross-domain 302 chain with Set-Cookie mid-chain", method: "GET",
			url: "http://a.example/start", referer: "http://app.example/index.html",
			cookies: map[string][]*http.Cookie{
				"http://a.example/":      {{Name: "aid", Value: "1"}},
				"http://sync.b.example/": {{Name: "net", Value: "x", Domain: "b.example"}},
			},
			script: map[string]hop{
				"http://a.example/start": redirect(http.StatusFound, "http://sync.b.example/mid?x=1"),
				"http://sync.b.example/mid?x=1": {status: http.StatusFound, headers: map[string][]string{
					"Location":   {"http://c.example/end"},
					"Set-Cookie": {"bid=abc; Path=/; Domain=b.example", "tmp=1"},
				}},
				"http://c.example/end":      redirect(http.StatusMovedPermanently, "http://www.b.example/back"),
				"http://www.b.example/back": {status: http.StatusOK, body: "done", headers: map[string][]string{"Content-Type": {"text/plain"}}},
			},
		},
		{
			name: "https to http drops the implicit Referer", method: "GET",
			url: "https://s.example/a",
			script: map[string]hop{
				"https://s.example/a": redirect(http.StatusFound, "https://s.example/b"),
				"https://s.example/b": redirect(http.StatusFound, "http://p.example/c"),
				"http://p.example/c":  redirect(http.StatusSeeOther, "/d"),
				"http://p.example/d":  {status: http.StatusOK},
			},
		},
		{
			name: "https to http keeps an explicit Referer", method: "GET",
			url: "https://s.example/a", referer: "https://app.example/",
			script: map[string]hop{
				"https://s.example/a": redirect(http.StatusFound, "http://p.example/c"),
				"http://p.example/c":  {status: http.StatusNoContent},
			},
		},
		{
			name: "redirect without Location", method: "GET",
			url: "http://a.example/x",
			script: map[string]hop{
				"http://a.example/x": {status: http.StatusFound, body: "moved", headers: map[string][]string{"Set-Cookie": {"k=v"}}},
			},
		},
		{
			name: "unparsable Location", method: "GET",
			url: "http://a.example/x",
			script: map[string]hop{
				"http://a.example/x": redirect(http.StatusFound, "http://[::1"),
			},
		},
		{
			name: "eleven redirects", method: "GET",
			url: "http://loop.example/0", script: loop,
		},
		{
			name: "transport error on hop 2", method: "GET",
			url: "http://a.example/x",
			script: map[string]hop{
				"http://a.example/x":    redirect(http.StatusFound, "http://dead.example/y"),
				"http://dead.example/y": {err: errors.New("hostnet: dial refused")},
			},
		},
		{
			name: "POST then 302", method: "POST",
			url: "http://fp.example/report", referer: "http://app.example/", contentType: "application/json", body: `{"a":1}`,
			script: map[string]hop{
				"http://fp.example/report": redirect(http.StatusFound, "/thanks"),
				"http://fp.example/thanks": {status: http.StatusOK, body: "ok"},
			},
		},
		{
			name: "POST then 307 then 302", method: "POST",
			url: "http://fp.example/report", contentType: "application/json", body: `{"a":1}`,
			script: map[string]hop{
				"http://fp.example/report":  redirect(http.StatusTemporaryRedirect, "http://fp2.example/report"),
				"http://fp2.example/report": redirect(http.StatusPermanentRedirect, "/v2"),
				"http://fp2.example/v2":     redirect(http.StatusFound, "/v3"),
				"http://fp2.example/v3":     redirect(http.StatusTemporaryRedirect, "/v4"),
				"http://fp2.example/v4":     {status: http.StatusNoContent},
			},
		},
		{
			name: "POST transport error", method: "POST",
			url: "http://fp.example/report", body: "x",
			script: map[string]hop{"http://fp.example/report": {err: errors.New("reset")}},
		},
		{
			name: "cookies that need sanitising", method: "GET",
			url: "http://a.example/p/q",
			cookies: map[string][]*http.Cookie{"http://a.example/p/": {
				{Name: "space", Value: "a b"},
				{Name: "comma", Value: "a,b"},
				{Name: "quote", Value: `a"b`},
				{Name: "semi", Value: "a;b"},
				{Name: "slash", Value: `a\b`},
				{Name: "ctl", Value: "a\x01b"},
				{Name: "high", Value: "aé"},
				{Name: "cr\r\nlf", Value: "v"},
				{Name: "empty", Value: ""},
				{Name: "plain", Value: "p-1_2.3", Path: "/p/q"},
			}},
			script: map[string]hop{"http://a.example/p/q": {status: http.StatusOK}},
		},
	}
	viaClient := func(jar *Jar, rt http.RoundTripper, req *http.Request) (*http.Response, error) {
		return (&http.Client{Transport: rt, Jar: jar}).Do(req)
	}
	viaTV := func(jar *Jar, rt http.RoundTripper, req *http.Request) (*http.Response, error) {
		tv := &TV{cfg: Config{Transport: rt}, jar: jar}
		return tv.do(req)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := runExchange(t, c, viaClient)
			got := runExchange(t, c, viaTV)
			if got.requests != want.requests {
				t.Errorf("requests differ\n--- TV\n%s--- http.Client\n%s", got.requests, want.requests)
			}
			if got.status != want.status || got.body != want.body || fmt.Sprint(got.header) != fmt.Sprint(want.header) {
				t.Errorf("final response: TV %d %v %q, http.Client %d %v %q",
					got.status, got.header, got.body, want.status, want.header, want.body)
			}
			if got.err != want.err {
				t.Errorf("error: TV %q, http.Client %q", got.err, want.err)
			}
			if got.warnings != want.warnings {
				t.Errorf("warnings: TV %q, http.Client %q", got.warnings, want.warnings)
			}
			if want.requests == "" {
				t.Fatal("script sent no request")
			}
		})
	}
}

// TestJarCookieHeaderMatchesAddCookie checks CookieHeader against adding
// each of Cookies(u) with http.Request.AddCookie, over path, domain and
// creation-time orderings.
func TestJarCookieHeaderMatchesAddCookie(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2023, 8, 21, 17, 0, 0, 0, time.UTC))
	j := NewJar(vc)
	j.SetCookies(mustURL(t, "http://a.b.example/x/y"), []*http.Cookie{
		{Name: "z", Value: "1"}, {Name: "a", Value: "2", Path: "/"},
		{Name: "d", Value: "3 4", Domain: "b.example"},
	})
	vc.Advance(time.Second)
	j.SetCookies(mustURL(t, "http://b.example/"), []*http.Cookie{
		{Name: "early", Value: "no"}, {Name: "dom", Value: "5", Domain: "b.example", Path: "/x"},
	})
	for _, raw := range []string{"http://a.b.example/x/y/z", "http://a.b.example/", "http://b.example/x", "http://none.example/"} {
		u := mustURL(t, raw)
		r := http.Request{Header: http.Header{}}
		for _, c := range j.Cookies(u) {
			r.AddCookie(c)
		}
		if got, want := j.CookieHeader(u), r.Header.Get("Cookie"); got != want {
			t.Errorf("%s: CookieHeader %q, AddCookie %q", raw, got, want)
		}
	}
}
