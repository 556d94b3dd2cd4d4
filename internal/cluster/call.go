package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"

	"repro/internal/fault"
)

// rpcBodyCap is the byte budget handed to the cluster.rpc torn-write
// failpoint: effectively unbounded, so an uninjected call passes every
// response through whole, while an injected one picks a cut point
// below any real response size.
const rpcBodyCap = 1 << 30

// rpc is one router→shard request: a POST of JSON when it carries a
// body, a GET when it does not. path includes any query string.
type rpc struct {
	path string
	body []byte
	// scratch is the pooled buffer body lives in, if any. Unless the
	// call reuses the inbound request, the request body carries its own
	// counted reference (scratchBody): a remote transport may drain it
	// after the round trip returns, a timed-out local handler may still
	// be reading it, and concurrent fan legs each need their own cursor.
	scratch *bodyScratch
	// id and addr travel as X-Identity and X-Forwarded-For, so the shard
	// prices the client's principal, not the router.
	id, addr string
	// inbound is the client's own request; a call carrying it runs on
	// inbound.Context(). An untimed call to a local node redirects it at the shard in
	// place, reverse-proxy style: no second request, headers pass
	// through untouched (a write goes out on a shallow copy carrying its
	// detached context). The local handler runs synchronously inside the
	// call, so the mutation cannot race the client connection — but only
	// a caller holding the request exclusively may pass it, which is why
	// concurrent fan legs drop it.
	inbound *http.Request
	// write marks a statement that changes state. It runs detached from
	// its caller's cancellation: a client that hangs up mid-fan must not
	// leave the write applied on one replica and missing on another, so
	// every leg runs to its answer or to the ShardTimeout deadline.
	write bool
}

// forwardOp is the rpc relaying a client's statement body to a shard.
func forwardOp(req *http.Request, path string, body []byte, scratch *bodyScratch) rpc {
	return rpc{path: path, body: body, scratch: scratch,
		id: req.Header.Get("X-Identity"), addr: req.RemoteAddr, inbound: req}
}

// call sends op to node n. It is the only code in the router that sends
// a request to a shard, so every router→shard RPC — queries and
// writes, admin proxies, schema fetches, health probes, the sketch
// exchange and the migrator — obeys the same rules:
//
//   - A write runs on ctx without its cancellation (see rpc.write).
//   - ShardTimeout, when set, bounds the call. The deadline lives until
//     the caller closes the response body, so it bounds the body too.
//   - The cluster.rpc failpoint may drop the request before the wire or
//     cut its response short.
//   - The node's in-flight count covers the round trip.
//   - A transport error — a drop, a refused connection, the deadline —
//     latches the node down and counts a peer error, plus a timeout
//     when the deadline fired. The one exception: once ctx itself is
//     done, the caller gave up (a client hung up, a scatter cancelled
//     its laggards), the error says nothing about the shard, and it
//     neither latches nor counts.
//
// An HTTP error status is an answer, not a failure; the caller judges
// it. The caller owns the response body.
func (r *Router) call(ctx context.Context, n *Node, op rpc) (*http.Response, error) {
	if op.write {
		ctx = context.WithoutCancel(ctx)
	}
	rctx, cancel := ctx, context.CancelFunc(nil)
	if d := r.cfg.ShardTimeout; d > 0 {
		rctx, cancel = context.WithTimeout(ctx, d)
	}
	resp, err := n.send(rctx, &op, cancel != nil)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		if ctx.Err() == nil {
			if rctx.Err() != nil {
				r.rpcTimeouts.Inc()
			}
			n.latchDown()
			r.peerErrors.Inc()
			r.syncPeerDown()
		}
		return nil, err
	}
	if cancel != nil {
		resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	}
	return resp, nil
}

// send builds op's request on ctx and round-trips it through the
// cluster.rpc failpoint, counting the node's in-flight load.
func (n *Node) send(ctx context.Context, op *rpc, timed bool) (*http.Response, error) {
	truncate := -1
	if fault.Enabled() {
		if k, ferr := fault.CheckWrite(fault.ClusterRPC, rpcBodyCap); ferr != nil {
			if k <= 0 {
				return nil, ferr // dropped before the wire, like a refused connection
			}
			// Delivered, but the response comes back cut short: the
			// status line survives, the body truncates mid-stream, and
			// the caller's decoder hits unexpected EOF. No down latch —
			// the peer did answer.
			truncate = k
		}
	}
	req, err := n.request(ctx, op, timed)
	if err != nil {
		return nil, err
	}
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	resp, err := n.do(req)
	if err != nil {
		return nil, err
	}
	if truncate >= 0 {
		resp.Body = &truncatedBody{r: io.LimitReader(resp.Body, int64(truncate)), c: resp.Body}
		resp.ContentLength = -1
	}
	return resp, nil
}

// request builds op's http.Request on ctx, reusing the inbound request
// where op allows it.
func (n *Node) request(ctx context.Context, op *rpc, timed bool) (*http.Request, error) {
	if in := op.inbound; in != nil && n.local != nil && !timed {
		u, err := n.urlFor(op.path)
		if err != nil {
			return nil, err
		}
		if op.write {
			in = in.WithContext(ctx)
		}
		// The cached URL is shared, as in serveDirect: handlers treat
		// req.URL as read-only.
		in.URL = u
		in.Host = u.Host
		in.RequestURI = ""
		if op.scratch != nil {
			op.scratch.Reset(op.body)
			in.Body = op.scratch
		} else {
			in.Body = io.NopCloser(bytes.NewReader(op.body))
		}
		in.ContentLength = int64(len(op.body))
		// Preserve the client address for shards falling back to
		// RemoteAddr identities.
		if in.RemoteAddr != "" {
			in.Header.Set("X-Forwarded-For", in.RemoteAddr)
		}
		return in, nil
	}
	method := http.MethodGet
	if op.body != nil {
		method = http.MethodPost
	}
	req, err := http.NewRequestWithContext(ctx, method, n.base+op.path, nil)
	if err != nil {
		return nil, err
	}
	if op.body != nil {
		if op.scratch != nil {
			sb := &scratchBody{s: op.scratch}
			sb.Reset(op.body)
			op.scratch.retain()
			req.Body = sb
		} else {
			req.Body = io.NopCloser(bytes.NewReader(op.body))
		}
		req.ContentLength = int64(len(op.body))
		req.Header.Set("Content-Type", "application/json")
	}
	if op.id != "" {
		req.Header.Set("X-Identity", op.id)
	}
	if op.addr != "" {
		req.Header.Set("X-Forwarded-For", op.addr)
	}
	return req, nil
}

// cancelBody ties a per-RPC timeout context to the response body's
// lifetime: the context cancels (releasing its timer) when the body
// closes.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelBody) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// truncatedBody delivers a prefix of the real body (the cluster.rpc
// torn failure) while closing the whole underlying stream.
type truncatedBody struct {
	r io.Reader
	c io.Closer
}

func (t *truncatedBody) Read(p []byte) (int, error) { return t.r.Read(p) }
func (t *truncatedBody) Close() error               { return t.c.Close() }
