package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Node is one delaydb shard behind the router. Local nodes (handlers
// in this process, the test and single-binary cluster mode) and HTTP
// peers (real deployments) share the same http.Client plumbing, so
// every byte the router moves crosses the same serialization boundary
// in both modes — a test against local nodes exercises the exact wire
// surface a deployment uses.
type Node struct {
	name string
	base string
	http *http.Client
	// local short-circuits http for in-process nodes: the request goes
	// straight to the RoundTripper, skipping the http.Client wrapper
	// (header copier, redirect plumbing) that costs real time on the
	// point-query hot path. Cancellation still works — the forwarded
	// request carries the call's context. nil for HTTP peers, which
	// keep the full client for its timeout handling.
	local http.RoundTripper
	// direct, when non-nil, serves single-target reads by invoking the
	// shard handler on the client's own ResponseWriter — no recorder,
	// no response copy, no relay. Only NewLocalNode sets it: a shard in
	// the router's own process cannot die independently of the router,
	// so the transport-failure failover the RoundTripper path provides
	// has nothing to catch here.
	direct http.Handler

	// urls caches parsed request URLs per path; the forward hot path
	// clones a cached value instead of re-parsing base+path per query.
	urls sync.Map // path → *url.URL

	// inflight is the live request count, the least-loaded policy's
	// signal and the per-peer gauge.
	inflight atomic.Int64
	// down latches when a request to the peer fails at the transport
	// level while its caller was still waiting (see Router.call). Routing and the exchange skip down peers entirely. The
	// anti-entropy loop's health probe moves a down peer to resync;
	// only POST /admin/peer-up clears both latches.
	down atomic.Bool
	// resync latches when a peer rejoins after missing writes: a probe
	// revival (the peer was down, so fan-out writes skipped it) or a
	// write divergence (the peer answered a write with a different
	// outcome than the one the router acked). A resync peer is back on
	// the write plane — fan-out writes and anti-entropy keep it from
	// falling further behind — but serves NO reads: it is missing
	// acked writes, and an acked write must stay readable. Only an
	// operator's POST /admin/peer-up (asserting the replica has been
	// resynced from a healthy peer) restores it to the read path.
	resync atomic.Bool
	// latchSeq orders latch episodes: it is stamped from latchClock on
	// every readable→latched transition (and untouched on down→resync,
	// which continues the same episode). Because an acked write that
	// fails on a readable replica quarantines that replica immediately,
	// every readable replica holds every acked write — so when ALL
	// replicas of a partition are latched, the one with the highest
	// latchSeq left the read plane last and is the partition's one
	// complete copy. CatchUpPeer uses this to refuse clearing a stale
	// replica ahead of the authoritative one.
	latchSeq atomic.Int64
}

// latchClock issues latchSeq stamps, ordered across all nodes of the
// process (shared across routers; only relative order within one
// replica group matters).
var latchClock atomic.Int64

// latchDown latches the node down, stamping the start of a new latch
// episode if the node was readable.
func (n *Node) latchDown() {
	if n.readable() {
		n.latchSeq.Store(latchClock.Add(1))
	}
	n.down.Store(true)
}

// latchResync latches the node writes-only, stamping the start of a new
// latch episode if the node was readable. Called on a down node (probe
// revival) it keeps the episode's original stamp: the missed-writes
// window began at the down latch, not at revival.
func (n *Node) latchResync() {
	if n.readable() {
		n.latchSeq.Store(latchClock.Add(1))
	}
	n.resync.Store(true)
}

// NewHTTPNode returns a shard reached over the network at base
// (e.g. "http://10.0.0.3:8080"). The transport is tuned for the
// router's traffic shape — a small set of peers, each carrying many
// concurrent point queries: the default MaxIdleConnsPerHost of 2 would
// discard all but two keep-alive connections per shard after every
// burst, re-paying connection setup on the hot path, so idle pooling
// is sized to the fan-out a busy router actually sustains.
func NewHTTPNode(name, base string) *Node {
	return &Node{
		name: name,
		base: base,
		http: &http.Client{
			Timeout: 5 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
}

// NewLocalNode returns a shard served by an in-process handler —
// cmd/delaydb's -cluster mode and every cluster test. The handler is
// invoked through a RoundTripper, not called directly, so request and
// response still pass through http.Request/http.Response encoding.
func NewLocalNode(name string, h http.Handler) *Node {
	t := handlerTransport{h: h}
	return &Node{
		name:   name,
		base:   "http://" + name,
		http:   &http.Client{Transport: t},
		local:  t,
		direct: h,
	}
}

// Name returns the node's routing name.
func (n *Node) Name() string { return n.name }

// Down reports whether the peer is latched down.
func (n *Node) Down() bool { return n.down.Load() }

// Resync reports whether the peer is latched writes-only pending an
// operator resync.
func (n *Node) Resync() bool { return n.resync.Load() }

// readable reports whether the peer may serve reads: reachable and not
// missing acked writes.
func (n *Node) readable() bool { return !n.down.Load() && !n.resync.Load() }

// InFlight returns the live request count against this node.
func (n *Node) InFlight() int64 { return n.inflight.Load() }

// do sends req over the node's transport: the raw round trip, with no
// routing policy. Router.call is its only caller.
func (n *Node) do(req *http.Request) (*http.Response, error) {
	if n.local != nil {
		return n.local.RoundTrip(req)
	}
	return n.http.Do(req)
}

// urlFor returns the parsed URL for base+path, cached per path.
func (n *Node) urlFor(path string) (*url.URL, error) {
	if u, ok := n.urls.Load(path); ok {
		return u.(*url.URL), nil
	}
	u, err := url.Parse(n.base + path)
	if err != nil {
		return nil, err
	}
	n.urls.Store(path, u)
	return u, nil
}

// handlerTransport adapts an http.Handler into an http.RoundTripper by
// recording the handler's response into a real http.Response.
type handlerTransport struct {
	h http.Handler
}

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, hasDeadline := req.Context().Deadline(); hasDeadline {
		// A deadline means the caller may abandon this call while the
		// handler still runs (a real transport would sever the
		// connection); serve it on a goroutine so the timeout can fire.
		// The goroutine owns the request body — it closes it when the
		// handler returns, whether or not anyone is still waiting.
		done := make(chan *http.Response, 1)
		go func() {
			rec := &recordedResponse{header: make(http.Header), code: http.StatusOK}
			t.h.ServeHTTP(rec, req)
			if req.Body != nil {
				req.Body.Close()
			}
			done <- rec.response(req)
		}()
		select {
		case resp := <-done:
			return resp, nil
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	rec := &recordedResponse{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	// Real transports guarantee exactly one Close of the request body;
	// pooled scratch bodies rely on that to return to their pool.
	if req.Body != nil {
		req.Body.Close()
	}
	return rec.response(req), nil
}

func (r *recordedResponse) response(req *http.Request) *http.Response {
	return &http.Response{
		Status:        http.StatusText(r.code),
		StatusCode:    r.code,
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        r.header,
		Body:          io.NopCloser(bytes.NewReader(r.body.Bytes())),
		ContentLength: int64(r.body.Len()),
		Request:       req,
	}
}

// recordedResponse is a minimal ResponseWriter capturing status,
// headers, and body for handlerTransport.
type recordedResponse struct {
	header http.Header
	body   bytes.Buffer
	code   int
	wrote  bool
}

func (r *recordedResponse) Header() http.Header { return r.header }

func (r *recordedResponse) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *recordedResponse) Write(p []byte) (int, error) {
	r.wrote = true
	return r.body.Write(p)
}
