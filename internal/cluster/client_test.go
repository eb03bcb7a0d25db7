package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientRejectsOversizeResponse serves coordinator responses made
// of one JSON object padded with whitespace, which a decoder with no
// cap would buffer whole and accept. Responses over the client's cap
// must be refused on every decode path (a POST envelope, the verdict
// listing and the state snapshot), while a response of exactly the
// cap still decodes.
func TestClientRejectsOversizeResponse(t *testing.T) {
	var size atomic.Int64
	size.Store(maxResponseBytes + 1<<20)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body.Close()
		}
		w.Header().Set("Content-Type", "application/json")
		// A padded object: "{", size-2 spaces, "}". Streamed in
		// chunks, so the server never holds the whole response.
		pad := bytes.Repeat([]byte{' '}, 64<<10)
		w.Write([]byte("{"))
		for left := size.Load() - 2; left > 0; {
			n := min(left, int64(len(pad)))
			if _, err := w.Write(pad[:n]); err != nil {
				return // the client hung up at its cap
			}
			left -= int64(n)
		}
		w.Write([]byte("}"))
	}))
	defer srv.Close()
	cl := NewClient(srv.URL, "node-x")

	calls := map[string]func() error{
		"lease":    func() error { _, err := cl.Lease(time.Millisecond); return err },
		"verdicts": func() error { _, err := cl.Verdicts(); return err },
		"state":    func() error { _, err := cl.State(); return err },
	}
	for name, call := range calls {
		err := call()
		if err == nil {
			t.Errorf("%s: %d-byte response accepted, want an error past the %d-byte cap", name, size.Load(), maxResponseBytes)
		} else if !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: error %q does not report the oversize response", name, err)
		}
	}

	size.Store(maxResponseBytes)
	if _, err := cl.Verdicts(); err != nil {
		t.Errorf("response of exactly the cap refused: %v", err)
	}
}
