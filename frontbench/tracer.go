package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one shard-handler call: the boundary between the router and
// a shard, timed from outside the program.
type span struct {
	op         uint64 // front-door op id
	shard      int
	start, end time.Time
	bytesOut   int
	principal  string
	body       []byte // request body, kept only while capturing
}

// tracer wraps the shard handlers handed to the cluster's nodes and
// listeners. Spans stay in memory and are written out at the end.
// Spans carry the id of the front-door op that caused them: each
// caller's principals are named "c<caller>-…", and the router forwards
// the principal, so a leg finds its op through its caller's in-flight
// op id even across a loopback hop.
type tracer struct {
	on      atomic.Bool
	capture atomic.Bool // also keep request bodies, for the ladder
	nextOp  atomic.Uint64
	cur     [maxCallerIDs]atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// beginOp stamps a new op id for caller c.
func (t *tracer) beginOp(c int) { t.cur[c].Store(t.nextOp.Add(1)) }

// opOf returns the op id in flight for the caller owning principal.
func (t *tracer) opOf(principal string) uint64 {
	if len(principal) < 2 || principal[0] != 'c' {
		return 0
	}
	dash := strings.IndexByte(principal, '-')
	c, ok := parseUint([]byte(principal[1:max(dash, 1)]))
	if !ok || c >= maxCallerIDs {
		return 0
	}
	return t.cur[c].Load()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = make([]span, 0, cap(out))
	return out
}

// countingWriter counts the response bytes a shard handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// wrap times every call of shard i's handler while tracing is on.
func (t *tracer) wrap(i int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sp := span{shard: i, principal: r.Header.Get("X-Identity")}
		sp.op = t.opOf(sp.principal)
		if t.capture.Load() {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			sp.body = body
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		cw := &countingWriter{ResponseWriter: w}
		sp.start = time.Now()
		h.ServeHTTP(cw, r)
		sp.end = time.Now()
		sp.bytesOut = cw.n
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	})
}
