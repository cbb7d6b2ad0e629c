package service

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
)

// FuzzEventCursor drives arbitrary resume cursors through the events
// endpoint, as the Last-Event-ID header and as ?from=. The handler must
// never panic, must accept exactly the cursors strconv.Atoi accepts (the
// request then reaches the session lookup: 404 on this empty registry),
// and must answer 400 to every other cursor. An empty value is no cursor.
// Any ?after= answers 400, whatever it holds.
func FuzzEventCursor(f *testing.F) {
	for _, seed := range []string{"", "0", "7", "-3", "+12", "007", " 1", "1 ", "1e3", "0x10", "1_000",
		"9223372036854775807", "9223372036854775808", "-", "١", "\x00", "a\r\nb"} {
		f.Add(seed)
	}
	reg := NewRegistry(RegistryConfig{WorkDir: f.TempDir()})
	f.Cleanup(func() { reg.Close() })
	h := NewServer(reg).http.Handler
	const path = "/v1/ensembles/none/sessions/q-0001/events"
	status := func(req *http.Request) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	f.Fuzz(func(t *testing.T, v string) {
		want := http.StatusNotFound
		if _, err := strconv.Atoi(v); err != nil && v != "" {
			want = http.StatusBadRequest
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("Last-Event-ID", v)
		if got := status(req); got != want {
			t.Fatalf("Last-Event-ID %q = %d, want %d", v, got, want)
		}
		q := "?" + url.Values{"from": {v}}.Encode()
		if got := status(httptest.NewRequest(http.MethodGet, path+q, nil)); got != want {
			t.Fatalf("from %q = %d, want %d", v, got, want)
		}
		q = "?" + url.Values{"after": {v}}.Encode()
		if got := status(httptest.NewRequest(http.MethodGet, path+q, nil)); got != http.StatusBadRequest {
			t.Fatalf("after %q = %d, want 400", v, got)
		}
	})
}
