package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/parthash"
	"repro/internal/server"
	"repro/internal/sqlmini"
)

// ladderOps is how many front-door ops the traced run replays down the
// layer ladder, one caller, in order; each rung below the cluster
// replays them ladderReps times and keeps the median pass.
const (
	ladderOps  = 1000
	ladderReps = 5
)

// counts is a snapshot of the program's own counters, summed over the
// shards: the public stats calls and metrics registries.
type counts struct {
	poolHits, poolMisses   int64
	planHits, planMisses   int64
	walCommits, walRecords int64
	walFlushes             int64 // wal.append failpoint evaluations
	latchWaits             int64
	priceHits, priceMisses int64
	escalations            int64
	principals             int64
	peerErrors             int64
}

func snapshot(d *deployment) counts {
	var c counts
	for _, sh := range d.shards {
		h, m, _ := sh.db.PoolStats()
		c.poolHits += h
		c.poolMisses += m
		ph, pm, _, _ := sh.db.PlanCacheStats()
		c.planHits += ph
		c.planMisses += pm
		cm, rec, _, _ := sh.db.WALGroupStats()
		c.walCommits += cm
		c.walRecords += rec
		_, waits, _, _ := sh.db.WriteStats()
		c.latchWaits += waits
		reg := sh.shield.Metrics()
		c.priceHits += reg.Counter("shield_price_cache_hits_total").Value()
		c.priceMisses += reg.Counter("shield_price_cache_misses_total").Value()
		c.escalations += reg.Counter("shield_detect_escalations_total").Value()
		if det := sh.shield.Detector(); det != nil {
			c.principals += int64(det.TrackedPrincipals())
		}
	}
	c.peerErrors = d.rmet.Counter("cluster_peer_errors_total").Value()
	if reg := fault.Active(); reg != nil {
		c.walFlushes = int64(reg.Hits(fault.WALAppend))
	}
	return c
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// leg is one router→shard call captured on the cluster rung.
type leg struct {
	shard     int
	principal string
	id        []string // X-Identity header value
	req       server.QueryRequest
	body      []byte
	// Filled by the lower rungs.
	sql  string
	keep func(uint64) bool
	rows int      // rows the engine returned
	keys []uint64 // keys the leg returns after the partition filter
}

// runTraced is the per-layer run. An untraced closed loop gives the
// harness share and the baseline throughput; the same loop with shard
// spans and counters on gives the counts and the tracing overhead; then
// ladderOps ops are replayed by one caller down the rungs — cluster,
// server, core, engine, delay — and each layer's self time is its rung
// minus the rung below.
func runTraced(w *workload, seed int64, dur time.Duration, runDir, dataDir string) (*result, error) {
	ks, err := newKeySpace(w.catalog)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	d, err := deploy(w, filepath.Join(runDir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	var t tally
	ck := newChecker(w)
	cs := loopCallers(d, ks, seed, ck)
	half := dur / 2
	hint := warmLoop(cs, half, &t)

	untraced := runLoop(cs, half, hint)
	t.addLoop(untraced)

	fault.Enable(fault.NewRegistry(uint64(seed))) // no rules: hit counters only
	c0 := snapshot(d)
	tr.on.Store(true)
	traced := runLoop(cs, half, hint)
	tr.on.Store(false)
	c1 := snapshot(d)
	fault.Disable()
	t.addLoop(traced)
	loopSpans := tr.take()
	finalCheck(d, ck, &t)

	lad, err := runLadder(d, ks, seed, ck, &t)
	if err != nil {
		return nil, err
	}

	ops := float64(traced.ops)
	bytesOut := 0
	for _, sp := range loopSpans {
		bytesOut += sp.bytesOut
	}
	untracedMeanUs := untraced.busy.Seconds() * 1e6 / float64(untraced.ops)
	m := map[string]metric{
		"cluster.self_us_per_op":         {lad.clusterSelfUs, "us"},
		"cluster.hop_us_per_op":          {lad.hopUs, "us"},
		"cluster.legs_per_op":            {float64(len(loopSpans)) / ops, "count"},
		"cluster.rpc_failures_per_op":    {float64(c1.peerErrors-c0.peerErrors) / ops, "count"},
		"server.self_us_per_op":          {lad.serverSelfUs, "us"},
		"server.allocs_per_op":           {lad.serverAllocs, "count"},
		"server.bytes_out_per_op":        {float64(bytesOut) / ops, "B"},
		"core.self_us_per_op":            {lad.coreSelfUs, "us"},
		"delay.quote_ns_per_tuple":       {lad.quoteNsPerTuple, "ns"},
		"delay.price_cache_hit_frac":     {ratio(float64(c1.priceHits-c0.priceHits), float64(c1.priceHits-c0.priceHits+c1.priceMisses-c0.priceMisses)), "frac"},
		"detect.escalated_frac":          {ratio(float64(c1.escalations), float64(c1.principals)), "frac"},
		"engine.exec_us_per_op":          {lad.engineUs, "us"},
		"engine.plan_cache_hit_frac":     {ratio(float64(c1.planHits-c0.planHits), float64(c1.planHits-c0.planHits+c1.planMisses-c0.planMisses)), "frac"},
		"engine.rows_per_op":             {lad.rowsPerOp, "count"},
		"storage.pool_hit_frac":          {ratio(float64(c1.poolHits-c0.poolHits), float64(c1.poolHits-c0.poolHits+c1.poolMisses-c0.poolMisses)), "frac"},
		"storage.pool_misses_per_op":     {float64(c1.poolMisses-c0.poolMisses) / ops, "count"},
		"storage.wal_records_per_flush":  {ratio(float64(c1.walRecords-c0.walRecords), float64(c1.walFlushes-c0.walFlushes)), "count"},
		"storage.wal_flushes_per_commit": {ratio(float64(c1.walFlushes-c0.walFlushes), float64(c1.walCommits-c0.walCommits)), "frac"},
		"storage.latch_waits_per_write":  {ratio(float64(c1.latchWaits-c0.latchWaits), float64(traced.count(opWrite))), "count"},
		"harness.frac":                   {untraced.harnessFrac(callers), "frac"},
		"tracing.overhead_frac":          {1 - traced.throughput()/untraced.throughput(), "frac"},
		"tracing.reconcile_frac":         {(lad.clusterSelfUs + lad.serverSelfUs + lad.coreSelfUs + lad.engineUs) / untracedMeanUs, "frac"},
	}
	if err := writeTrace(filepath.Join(dataDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed)), lad.spans, m); err != nil {
		return nil, err
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// ladder holds the per-op figures of the single-caller replay.
type ladder struct {
	clusterSelfUs, hopUs     float64
	serverSelfUs, coreSelfUs float64
	engineUs, rowsPerOp      float64
	quoteNsPerTuple          float64
	serverAllocs             float64
	spans                    []traceRecord
}

// traceRecord is one line of the trace file.
type traceRecord struct {
	Op      uint64  `json:"op"`
	Layer   string  `json:"layer"`
	Shard   int     `json:"shard"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	Bytes   int     `json:"bytes,omitempty"`
}

func runLadder(d *deployment, ks *keySpace, seed int64, ck *checker, t *tally) (*ladder, error) {
	// The ladder's op stream: the closed loop's roles, interleaved.
	var streams []*stream
	for i, r := range d.w.roles {
		streams = append(streams, newStream(d.w, ks, seed+1, ladderCaller+i, r))
	}
	opsList := make([]op, ladderOps)
	for i := range opsList {
		opsList[i] = streams[i%len(streams)].nextOp()
	}
	tr := d.tracer
	lcs := make([]*caller, len(streams))
	for i, s := range streams {
		lcs[i] = newCaller(s.caller, d, d.front, nil, ck)
	}
	callerFor := func(i int) *caller { return lcs[i%len(lcs)] }

	// Cluster rung: the deployed front door, with shard spans on and
	// request bodies captured for the rungs below.
	tr.on.Store(true)
	tr.capture.Store(true)
	epoch := time.Now()
	fd := make([]time.Duration, len(opsList))
	starts := make([]time.Time, len(opsList))
	opIDs := make([]uint64, len(opsList))
	for i, o := range opsList {
		cl := callerFor(i)
		starts[i] = time.Now()
		dur, ok := cl.do(o)
		fd[i] = dur
		opIDs[i] = tr.cur[cl.idx].Load()
		t.add(ok)
	}
	tr.on.Store(false)
	tr.capture.Store(false)
	spans := tr.take()

	lad := &ladder{}
	byOp := make(map[uint64][]span, len(opsList))
	for _, sp := range spans {
		byOp[sp.op] = append(byOp[sp.op], sp)
	}
	var legs []*leg
	var selfTotal time.Duration
	for i, id := range opIDs {
		sps := byOp[id]
		selfTotal += fd[i] - union(sps)
		lad.spans = append(lad.spans, traceRecord{Op: id, Layer: "cluster", Shard: -1,
			StartUs: us(starts[i].Sub(epoch)), DurUs: us(fd[i])})
		for _, sp := range sps {
			lad.spans = append(lad.spans, traceRecord{Op: id, Layer: "server", Shard: sp.shard,
				StartUs: us(sp.start.Sub(epoch)), DurUs: us(sp.end.Sub(sp.start)), Bytes: sp.bytesOut})
			lg := &leg{shard: sp.shard, principal: sp.principal, id: []string{sp.principal}, body: sp.body}
			if err := json.Unmarshal(sp.body, &lg.req); err != nil {
				return nil, fmt.Errorf("ladder: decoding captured leg: %w", err)
			}
			legs = append(legs, lg)
		}
	}
	n := float64(len(opsList))
	lad.clusterSelfUs = us(selfTotal) / n

	// Remote hop: each op through the deployed router and then through a
	// router over the same shards as in-process nodes, both untraced.
	if d.w.loopback {
		local, err := d.localRouter()
		if err != nil {
			return nil, err
		}
		var hop time.Duration
		for i, o := range opsList {
			c := callerFor(i)
			c.front = d.front
			remote, ok := c.do(o)
			t.add(ok)
			c.front = local
			dur, ok := c.do(o)
			t.add(ok)
			hop += remote - dur
		}
		lad.hopUs = us(hop) / n
	}

	// A rung that fails voids the ladder; rungErr keeps the first error.
	var rungErr error
	fail := func(err error) {
		if rungErr == nil {
			rungErr = err
		}
	}

	// Server rung: each captured leg straight into its shard's handler.
	lw := &respWriter{h: make(http.Header)}
	var body bodyReader
	serverTotal, serverAllocs := timeRung(len(legs), func(i int) time.Duration {
		lg := legs[i]
		body = bodyReader{b: lg.body}
		lw.reset()
		req := newRequest(&body, lg.id)
		t0 := time.Now()
		d.shards[lg.shard].srv.ServeHTTP(lw, req)
		el := time.Since(t0)
		if lw.status != http.StatusOK {
			fail(fmt.Errorf("ladder: server rung: HTTP %d %.200s", lw.status, lw.buf.Bytes()))
		}
		return el
	})

	// Core rung: the shield, with the partition filter the server would
	// apply for a scatter leg.
	for _, lg := range legs {
		if err := prepareLeg(lg); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	coreTotal, coreAllocs := timeRung(len(legs), func(i int) time.Duration {
		lg := legs[i]
		t0 := time.Now()
		_, _, err := d.shards[lg.shard].shield.QueryFilteredCtx(ctx, lg.principal, lg.sql, lg.keep)
		el := time.Since(t0)
		if err != nil {
			fail(fmt.Errorf("ladder: core rung: %w", err))
		}
		return el
	})

	// Engine rung: prepare and execute the same statement.
	engineTotal, _ := timeRung(len(legs), func(i int) time.Duration {
		lg := legs[i]
		db := d.shards[lg.shard].db
		t0 := time.Now()
		var res *engine.Result
		p, err := db.Prepare(lg.sql)
		if err == nil {
			res, err = p.Exec()
			p.Release()
		}
		el := time.Since(t0)
		if err != nil {
			fail(fmt.Errorf("ladder: engine rung: %w", err))
		} else {
			lg.rows = len(res.Rows)
			lg.keys = lg.keys[:0]
			for _, k := range res.Keys {
				if lg.keep == nil || lg.keep(k) {
					lg.keys = append(lg.keys, k)
				}
			}
		}
		return el
	})

	// Delay rung: quote the tuples the leg returns.
	rows, tuples := 0, 0
	for _, lg := range legs {
		rows += lg.rows
		tuples += len(lg.keys)
	}
	quoteTotal, _ := timeRung(len(legs), func(i int) time.Duration {
		lg := legs[i]
		if len(lg.keys) == 0 {
			return 0
		}
		gate := d.shards[lg.shard].shield.Gate()
		t0 := time.Now()
		gate.Quote(lg.keys...)
		return time.Since(t0)
	})

	if rungErr != nil {
		return nil, rungErr
	}
	_, ha := harnessAllocs()
	lad.serverSelfUs = us(serverTotal-coreTotal) / n
	lad.serverAllocs = (serverAllocs - coreAllocs - ha*float64(len(legs))) / n
	lad.coreSelfUs = us(coreTotal-engineTotal) / n
	lad.engineUs = us(engineTotal) / n
	lad.rowsPerOp = float64(rows) / n
	lad.quoteNsPerTuple = ratio(float64(quoteTotal.Nanoseconds()), float64(tuples))
	return lad, nil
}

// prepareLeg derives the statement and row filter the shard's server
// hands its shield for a captured leg, mirroring the server's
// partition-filter path for scatter legs.
func prepareLeg(lg *leg) error {
	lg.sql = lg.req.SQL
	f := lg.req.PFilter
	if f == nil {
		return nil
	}
	stmt, err := sqlmini.Parse(lg.req.SQL)
	if err != nil {
		return err
	}
	sel, ok := stmt.(*sqlmini.Select)
	if !ok {
		return fmt.Errorf("ladder: filtered leg is not a SELECT: %q", lg.req.SQL)
	}
	include := make(map[int]bool, len(f.Include))
	for _, p := range f.Include {
		include[p] = true
	}
	// The benchmark's statements carry no LIMIT, so the filter is
	// partition membership alone and can be applied again on every pass.
	exec := *sel
	exec.Limit = -1
	lg.sql = sqlmini.Render(&exec)
	lg.keep = func(key uint64) bool { return include[parthash.Index(int64(key), f.Count)] }
	return nil
}

// timeRung runs fn for every leg in order, ladderReps times, and
// returns the median over passes of the summed times and of the
// allocations made meanwhile.
func timeRung(n int, fn func(i int) time.Duration) (time.Duration, float64) {
	totals := make([]float64, ladderReps)
	allocs := make([]float64, ladderReps)
	for r := range totals {
		runtime.GC()
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		var total time.Duration
		for i := 0; i < n; i++ {
			total += fn(i)
		}
		runtime.ReadMemStats(&b)
		totals[r], allocs[r] = float64(total), float64(b.Mallocs-a.Mallocs)
	}
	return time.Duration(median(totals)), median(allocs)
}

// union is the wall time covered by a set of possibly overlapping spans.
func union(sps []span) time.Duration {
	if len(sps) == 0 {
		return 0
	}
	s := append([]span(nil), sps...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	curS, curE := s[0].start, s[0].end
	for _, sp := range s[1:] {
		if sp.start.After(curE) {
			total += curE.Sub(curS)
			curS, curE = sp.start, sp.end
			continue
		}
		if sp.end.After(curE) {
			curE = sp.end
		}
	}
	return total + curE.Sub(curS)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// writeTrace writes the ladder's spans, then the run's per-layer
// metrics, as JSON lines.
func writeTrace(path string, recs []traceRecord, m map[string]metric) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"metrics": m}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
