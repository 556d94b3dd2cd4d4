package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var (
	queryURL = &url.URL{Scheme: "http", Host: "frontbench", Path: "/query"}
	jsonCT   = []string{"application/json"}
)

// bodyReader is a reusable request body over a caller-owned buffer.
type bodyReader struct {
	b   []byte
	off int
}

func (r *bodyReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error { return nil }

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

func (w *respWriter) reset() {
	clear(w.h)
	w.status = 0
	w.buf.Reset()
}

// newRequest builds the front-door request for one op. Each op gets a
// fresh *http.Request and header map, because the router may rewrite
// both in place when it forwards to an in-process shard.
func newRequest(body *bodyReader, id []string) *http.Request {
	return &http.Request{
		Method:        http.MethodPost,
		URL:           queryURL,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": jsonCT, "X-Identity": id},
		Body:          body,
		ContentLength: int64(len(body.b)),
		Host:          queryURL.Host,
		RemoteAddr:    "192.0.2.1:4000",
		RequestURI:    "/query",
	}
}

// caller is one closed-loop principal-driving goroutine: it sends an op
// through the front door, waits for the answer, checks it, and only then
// sends the next.
type caller struct {
	idx   int
	front http.Handler
	tr    *tracer // nil when untraced
	s     *stream
	check *checker
	buf   []byte
	body  bodyReader
	w     respWriter
}

func newCaller(idx int, d *deployment, front http.Handler, s *stream, ck *checker) *caller {
	return &caller{idx: idx, front: front, tr: d.tracer, s: s, check: ck, w: respWriter{h: make(http.Header)}}
}

// do sends o and returns how long the front-door call took and whether
// the answer was correct. The answer stays in c.w until the next call.
func (c *caller) do(o op) (dur time.Duration, ok bool) {
	c.buf = appendSQL(c.buf[:0], o, c.idx)
	c.body = bodyReader{b: c.buf}
	c.w.reset()
	req := newRequest(&c.body, o.principal)
	var token writeToken
	if o.kind == opWrite {
		token = c.check.beginWrite(o.key, valueID(c.idx, o.seq))
	}
	rs := c.check.beginRead(c.idx)
	if c.tr != nil {
		c.tr.beginOp(c.idx)
	}
	t0 := time.Now()
	c.front.ServeHTTP(&c.w, req)
	dur = time.Since(t0)
	re := c.check.now()
	ok = c.check.verify(o, c.w.status, c.w.buf.Bytes(), rs, re, token)
	c.check.endRead(c.idx)
	if !ok && failuresLogged.Add(1) <= maxFailureLogs {
		fmt.Fprintf(os.Stderr, "frontbench: wrong answer to %s key %d from caller %d: HTTP %d %.300s\n",
			kindNames[o.kind], o.key, c.idx, c.w.status, c.w.buf.Bytes())
	}
	return dur, ok
}

// maxFailureLogs bounds the wrong answers a run describes on stderr.
const maxFailureLogs = 5

var failuresLogged atomic.Int64

// loopResult is one closed-loop run.
type loopResult struct {
	elapsed time.Duration
	ops     int
	failed  int
	busy    time.Duration       // sum of front-door call durations
	lat     [][numKinds][]int64 // per caller, per kind: service times
}

// runLoop drives every caller for dur. Callers share nothing but the
// deployment and the checker. capHint presizes each caller's per-kind
// sample buffers so recording allocates nothing while the loop is
// measured.
func runLoop(cs []*caller, dur time.Duration, capHint [numKinds]int) *loopResult {
	res := &loopResult{lat: make([][numKinds][]int64, len(cs))}
	type tally struct {
		ops, failed int
		busy        time.Duration
	}
	tallies := make([]tally, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range cs {
		lat := &res.lat[i]
		for k := range lat {
			lat[k] = make([]int64, 0, capHint[k])
		}
		wg.Add(1)
		go func(c *caller, lat *[numKinds][]int64, t *tally) {
			defer wg.Done()
			for time.Since(start) < dur {
				o := c.s.nextOp()
				d, ok := c.do(o)
				t.ops++
				t.busy += d
				if !ok {
					t.failed++
				}
				lat[o.kind] = append(lat[o.kind], int64(d))
			}
		}(c, lat, &tallies[i])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, t := range tallies {
		res.ops += t.ops
		res.failed += t.failed
		res.busy += t.busy
	}
	return res
}

func (r *loopResult) count(k opKind) int {
	n := 0
	for _, lat := range r.lat {
		n += len(lat[k])
	}
	return n
}

// capHint scales this run's per-caller sample counts to a run of dur,
// with headroom, for presizing the next run's buffers.
func (r *loopResult) capHint(dur time.Duration) [numKinds]int {
	var h [numKinds]int
	scale := dur.Seconds() / r.elapsed.Seconds()
	for k := range h {
		most := 0
		for _, lat := range r.lat {
			most = max(most, len(lat[k]))
		}
		h[k] = int(float64(most)*scale*1.5) + 1024
	}
	return h
}

// quantileMs is the q-quantile of every kind-k service time of the run,
// in milliseconds. The host drifts between faster and slower phases over
// seconds; a quantile pooled over the whole run moves smoothly with the
// share of each phase, where a median of per-window quantiles jumps
// between them.
func (r *loopResult) quantileMs(k opKind, q float64) float64 {
	var all []int64
	for _, lat := range r.lat {
		all = append(all, lat[k]...)
	}
	if len(all) == 0 {
		return 0
	}
	return quantile(all, q) / 1e6
}

// throughput is ops completed per second over the whole run.
func (r *loopResult) throughput() float64 { return float64(r.ops) / r.elapsed.Seconds() }

// harnessFrac is the share of caller wall time spent outside the
// front-door call: generating, building, checking and recording.
func (r *loopResult) harnessFrac(n int) float64 {
	return 1 - r.busy.Seconds()/(r.elapsed.Seconds()*float64(n))
}

// quantile returns the q-quantile of s (sorted in place), interpolating
// between order statistics.
func quantile(s []int64, q float64) float64 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	f := pos - float64(i)
	return float64(s[i])*(1-f) + float64(s[i+1])*f
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
