package headend

import (
	"net/http"
	"net/url"
	"testing"
)

// TestSiteParamMatchesParseQuery checks the map-free query scan against
// url.ParseQuery followed by Values.Get, the form it replaced.
func TestSiteParamMatchesParseQuery(t *testing.T) {
	want := func(raw string) string {
		q, _ := url.ParseQuery(raw)
		if c := q.Get("c"); c != "" {
			return c
		}
		return q.Get("site")
	}
	for _, raw := range []string{
		"", "c=ard", "uid=1&c=zdf&c=rtl", "c=&site=sat1", "c=&c=late&site=s",
		"site=a%20b&c=", "%63=escaped-key", "c=%zz&c=ok", "%zz=1&c=x",
		"c=a;b&c=second", "c;=x&site=y", "c=a+b", "c=%E2%82%AC", "&&c=x&&",
		"c", "c&site=z", "site=1&site=2", "cc=no&sitex=no", "c=a=b",
		"+c=plus-key&site=s", "c%3D=odd&site=t",
	} {
		if got, w := siteParam(raw), want(raw); got != w {
			t.Errorf("siteParam(%q) = %q, ParseQuery gives %q", raw, got, w)
		}
	}
}

// TestRequestCookieMatchesRequestCookie checks the allocation-free Cookie
// header scan against http.Request.Cookie on well-formed and malformed
// headers.
func TestRequestCookieMatchesRequestCookie(t *testing.T) {
	headers := [][]string{
		nil,
		{""},
		{"tid=abc"},
		{"a=1; tid=abc; tid=second"},
		{"  tid = spaced ; x=1"},
		{`tid="quoted"`},
		{`tid="`},
		{`tid="a"b"`},
		{"tid=bad\\byte; tid=good"},
		{"tid=a b"},
		{"tid"},
		{"tid="},
		{";;tid=x;;"},
		{"other=1", "tid=second-line"},
		{"tid_ard de=x"},
		{"tid\t=tab"},
		{"tid=é"},
	}
	for _, h := range headers {
		for _, name := range []string{"tid", "tid_ard de", "", "x"} {
			r := &http.Request{Header: http.Header{}}
			if h != nil {
				r.Header["Cookie"] = h
			}
			var want string
			c, err := r.Cookie(name)
			if err == nil {
				want = c.Value
			}
			got, ok := requestCookie(r.Header, name)
			if ok != (err == nil) || got != want {
				t.Errorf("requestCookie(%q, %q) = %q, %v; Request.Cookie gives %q, %v", h, name, got, ok, want, err)
			}
		}
	}
}
