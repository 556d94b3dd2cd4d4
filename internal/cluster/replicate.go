package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/fault"
)

// This file is the replica-group layer over the partition map: point
// reads that fail over inside a partition's replica group (with
// bounded, jittered retry), and single-key group writes that apply to
// every replica in the router's order and ack on a readable-replica
// success. The invariant both paths defend: an acked write is readable
// on every shard a read can route to — a replica that missed or
// rejected an acked write leaves the read path (down or resync latch)
// before the ack is relayed.

// rpcBackoffBase mirrors the shard client's retry policy at the router
// layer (exponential with full ±50% jitter, capped at 10× base).
const rpcBackoffBase = 25 * time.Millisecond

// rpcBackoff returns the sleep before retry attempt (0-based).
func rpcBackoff(attempt int) time.Duration {
	d := rpcBackoffBase << attempt
	if max := 10 * rpcBackoffBase; d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// readRetryRounds bounds how many full walks of a replica group (or
// re-covers of a scatter) a read attempts before giving up: the first
// walk plus two jittered-backoff retries. Only idempotent reads retry;
// a charged write is never re-sent.
const readRetryRounds = 3

// serveReplicaRead answers a point read pinned to one partition: walk
// the replica group in preference order, skipping unreadable replicas,
// failing over past dead ones. A replica's transport failure latches it
// down and the walk continues — this is how a primary kill stays
// invisible to clients when R > 1. A 5xx answer is retryable too (on
// another replica first, then after a jittered backoff), bounded by
// readRetryRounds; the last shard answer is relayed when the budget
// runs out. The walk and its retries stop once the client hangs up.
// The response relays only after re-checking the map pointer, so an
// answer computed under a superseded map is retracted as a 409.
func (r *Router) serveReplicaRead(w http.ResponseWriter, req *http.Request, pm *PartitionMap, part int, body []byte, scratch *bodyScratch) {
	group := pm.groupOf(part)
	var last *http.Response
walk:
	for round := 0; round < readRetryRounds; round++ {
		if round > 0 {
			any := false
			for _, i := range group {
				if r.nodes[i].readable() {
					any = true
					break
				}
			}
			if !any {
				break // nothing left to retry against
			}
			r.readRetries.Inc()
			r.cfg.Clock.Sleep(rpcBackoff(round - 1))
		}
		for ri, i := range group {
			if req.Context().Err() != nil {
				break walk
			}
			n := r.nodes[i]
			if !n.readable() {
				continue
			}
			if ri > 0 || round > 0 {
				r.readFailover.Inc()
			}
			resp, err := r.call(req.Context(), n, forwardOp(req, "/query", body, scratch))
			if err != nil {
				continue // latched down (or the client left); next replica
			}
			if resp.StatusCode >= http.StatusInternalServerError {
				if last != nil {
					last.Body.Close()
				}
				last = resp
				continue
			}
			if last != nil {
				last.Body.Close()
			}
			r.relayUnder(w, pm, resp)
			return
		}
	}
	if last != nil {
		r.relayUnder(w, pm, last)
		return
	}
	if req.Context().Err() != nil {
		return // the client is gone; nothing useful can be written
	}
	writeErr(w, http.StatusServiceUnavailable,
		fmt.Errorf("partition %d unavailable: no readable replica", part))
}

// relayUnder relays a shard response computed under map pm, or retracts
// it as a 409 when the map changed while it was in flight. A nil pm
// (a write not routed by partition) always relays.
func (r *Router) relayUnder(w http.ResponseWriter, pm *PartitionMap, resp *http.Response) {
	if pm != nil && r.pmap.Load() != pm {
		resp.Body.Close()
		r.writePartitionStale(w)
		return
	}
	relay(w, resp)
}

// fanResult is one leg of a raw fan-out.
type fanResult struct {
	resp *http.Response
	err  error
}

// applied reports whether the leg's shard accepted the write.
func (f fanResult) applied() bool { return f.err == nil && f.resp.StatusCode == http.StatusOK }

// fanRaw sends op to every target through the cluster.fanout
// failpoint — concurrently when there is more than one — and returns
// the raw responses positionally.
func (r *Router) fanRaw(ctx context.Context, targets []int, op rpc) []fanResult {
	r.writeFanout.Inc()
	results := make([]fanResult, len(targets))
	if len(targets) == 1 {
		results[0] = r.fanLeg(ctx, targets[0], op)
		return results
	}
	op.inbound = nil // concurrent legs cannot share the client's request
	var wg sync.WaitGroup
	for slot, i := range targets {
		wg.Add(1)
		go func(slot, i int) {
			defer wg.Done()
			results[slot] = r.fanLeg(ctx, i, op)
		}(slot, i)
	}
	wg.Wait()
	return results
}

// fanLeg sends one leg of a fan-out.
func (r *Router) fanLeg(ctx context.Context, node int, op rpc) fanResult {
	if err := fault.Check(fault.ClusterFanout); err != nil {
		return fanResult{err: err}
	}
	resp, err := r.call(ctx, r.nodes[node], op)
	return fanResult{resp: resp, err: err}
}

// settleWrite answers a fanned write from its results, where the first
// owners targets are the replicas the write must land on and the rest
// are migration gainers of partition part; pm is the map the write
// routed under (nil for all-node writes, which skip the final map
// check). The write acks iff a readable owner accepted it. Once acked,
// every owner that did not apply it and is still reachable — it
// answered an error the others did not share, or its fan leg was
// dropped — has diverged from the replica set and is latched out of the
// read path (resync) before the ack relays; owners that died mid-write
// latched down inside the transport. Either way an acked write stays
// readable on every shard a read can route to. A gainer's failure never
// fails the client — it marks the partition dirty so the migrator
// re-copies it. Without an ack the first owner's error answer relays
// (replicas agree on deterministic rejections); a success confined to
// resync owners, or no answer at all, is a 503.
func (r *Router) settleWrite(w http.ResponseWriter, pm *PartitionMap, part int, targets []int, owners int, results []fanResult) {
	var ok, firstErr *http.Response
	resyncOnlyOK := false
	for slot, res := range results {
		if res.err != nil {
			r.writeFanErr.Inc()
		}
		switch {
		case slot >= owners:
			if !res.applied() {
				r.migrationMarkDirty(pm, part)
			}
		case res.applied() && r.nodes[targets[slot]].readable():
			if ok == nil {
				ok = res.resp
			}
		case res.applied():
			resyncOnlyOK = true
		case res.err == nil && firstErr == nil:
			firstErr = res.resp
		}
	}
	if ok != nil {
		for slot, res := range results[:owners] {
			n := r.nodes[targets[slot]]
			if res.applied() || n.down.Load() {
				continue
			}
			if !n.resync.Load() {
				n.latchResync()
				r.writeDiverged.Inc()
			}
		}
		r.syncPeerDown()
	}
	chosen := ok
	if chosen == nil {
		chosen = firstErr
	}
	for _, res := range results {
		if res.resp != nil && res.resp != chosen {
			res.resp.Body.Close()
		}
	}
	switch {
	case chosen != nil:
		r.relayUnder(w, pm, chosen)
	case resyncOnlyOK:
		writeErr(w, http.StatusServiceUnavailable,
			errors.New("write applied to no read-serving replica; retry when the cluster recovers"))
	case part >= 0:
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("write reached no replica of partition %d", part))
	default:
		writeErr(w, http.StatusServiceUnavailable, errors.New("write reached no shard"))
	}
}

// serveGroupWrite applies a single-key write to its partition's whole
// replica group (plus any migration dual-write gainers), in the
// router's order: the caller holds the partition's mutex for the full
// fan, so two writes to one partition cannot interleave differently on
// different replicas. settleWrite decides the ack.
func (r *Router) serveGroupWrite(w http.ResponseWriter, req *http.Request, pm *PartitionMap, part int, body []byte, scratch *bodyScratch) {
	r.partLocks.RLock()
	defer r.partLocks.RUnlock()
	r.partMu[part].Lock()
	defer r.partMu[part].Unlock()

	// The map may have cut over while this write queued on the lock;
	// its partition assignment (and dual-write set) would be stale.
	if r.pmap.Load() != pm {
		r.writePartitionStale(w)
		return
	}

	group := pm.groupOf(part)
	gainers := r.migrationGainers(pm, part)
	targets := make([]int, 0, len(group)+len(gainers))
	for _, i := range group {
		if !r.nodes[i].down.Load() {
			targets = append(targets, i)
		}
	}
	owners := len(targets)
	if owners == 0 {
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("partition %d unavailable: no reachable replica", part))
		return
	}
	for _, i := range gainers {
		if r.nodes[i].down.Load() {
			// The in-flight copy misses this write; re-queue the
			// partition for the migrator rather than dropping it.
			r.migrationMarkDirty(pm, part)
			continue
		}
		targets = append(targets, i)
	}
	op := forwardOp(req, "/query", body, scratch)
	op.write = true
	r.settleWrite(w, pm, part, targets, owners, r.fanRaw(req.Context(), targets, op))
}
