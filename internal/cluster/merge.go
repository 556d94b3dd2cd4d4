package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"repro/internal/server"
	"repro/internal/sqlmini"
)

// This file is the front-door merge executor: a multi-partition scan or
// aggregate fans to one live replica per partition — each leg carrying
// a partition filter naming exactly the partitions it answers for, so
// replicated copies and migration leftovers can never double into the
// result — and the partial results recombine here into exactly the
// response one shard holding everything would have produced. Three
// merge shapes:
//
//   - ORDER BY: each shard returns its slice already sorted (with the
//     sort column injected into the projection when the client did not
//     select it), and the executor k-way merges the sorted streams,
//     stripping the injected column before relay.
//   - Aggregates: the statement is rewritten into mergeable partials
//     (sqlmini.PartialAggregates) and the partials combine — counts and
//     sums add, AVG divides summed sums by summed counts, MIN/MAX take
//     the extreme over shards whose slice matched at least one row.
//   - LIMIT without ORDER BY: the fan-out stops as soon as enough rows
//     arrived — the shared context cancels outstanding shard RPCs, so a
//     LIMIT 10 against four shards costs roughly the fastest shard, not
//     the slowest.
//
// A failed leg (transport error, truncated body, shard 5xx) does not
// fail the scan when R > 1: its partitions re-cover onto the surviving
// replicas and retry with jittered backoff, bounded by readRetryRounds.
// Deterministic shard rejections (4xx) relay immediately.

// shardReply is one shard's answer to a fanned statement.
type shardReply struct {
	node   int
	status int
	ct     string
	resp   server.QueryResponse
	raw    []byte // body of a non-200 answer, relayed verbatim
	err    error  // transport failure (status 0) or 200-body decode failure
}

// fanStatements sends reqFor(node) to each target concurrently,
// returning a channel carrying exactly one reply per target. Identity
// and client address are captured as strings before the goroutines
// start: with LIMIT early-cancel the handler can return while laggard
// RPCs still run, after which req belongs to the http server again.
// write marks the statements as writes, which run detached from ctx's
// cancellation (rpc.write).
func (r *Router) fanStatements(ctx context.Context, req *http.Request, targets []int, write bool, reqFor func(int) server.QueryRequest) <-chan shardReply {
	id := req.Header.Get("X-Identity")
	addr := req.RemoteAddr
	ch := make(chan shardReply, len(targets))
	for _, i := range targets {
		go func(i int) {
			body, err := json.Marshal(reqFor(i))
			if err != nil {
				ch <- shardReply{node: i, err: err}
				return
			}
			ch <- r.shardQuery(ctx, i, rpc{path: "/query", body: body, id: id, addr: addr, write: write})
		}(i)
	}
	return ch
}

// shardQuery runs one fanned RPC and decodes its answer. A leg the
// scatter cancelled on purpose (LIMIT satisfied, or another shard
// already errored) fails without latching its shard, by call's
// cancellation rule; a shard past the deadline is a peer failure, and
// the scatter retries its partitions elsewhere.
func (r *Router) shardQuery(ctx context.Context, node int, op rpc) shardReply {
	n := r.nodes[node]
	resp, err := r.call(ctx, n, op)
	if err != nil {
		return shardReply{node: node, err: err}
	}
	defer resp.Body.Close()
	out := shardReply{node: node, status: resp.StatusCode, ct: resp.Header.Get("Content-Type")}
	if resp.StatusCode == http.StatusOK {
		if derr := json.NewDecoder(resp.Body).Decode(&out.resp); derr != nil && ctx.Err() == nil {
			out.err = fmt.Errorf("shard %s: decoding response: %v", n.name, derr)
		}
	} else {
		out.raw, _ = io.ReadAll(resp.Body)
	}
	return out
}

// relayRaw copies a shard's non-200 answer to the client verbatim.
func relayRaw(w http.ResponseWriter, rep shardReply) {
	if rep.ct != "" {
		w.Header().Set("Content-Type", rep.ct)
	}
	w.WriteHeader(rep.status)
	w.Write(rep.raw)
}

// mergeSpec is the merge plan derived from the statement shape.
type mergeSpec struct {
	// aggs/src: original aggregate list and, per aggregate, the indices
	// of its partials in the rewritten shard statement.
	aggs []sqlmini.Aggregate
	src  [][]int
	// order + orderIdx: merge column. orderIdx -1 means resolve by name
	// against the shard response columns (SELECT *).
	order    *sqlmini.OrderBy
	orderIdx int
	// strip: the order column was injected into the shard projection
	// and must come back off before relay.
	strip bool
	limit int
	// earlyCancel: plain LIMIT scan — stop collecting (and cancel the
	// laggards) the moment enough rows arrived.
	earlyCancel bool
}

// readCover assigns every partition in parts to one readable replica:
// node index → the partitions that node answers for. avoid maps a
// partition to a replica that just failed with a shard error — when the
// group has an alternative, the retry goes elsewhere. A partition with
// no readable replica at all fails the cover.
func (r *Router) readCover(pm *PartitionMap, parts []int, avoid map[int]int) (map[int][]int, int, bool) {
	cover := make(map[int][]int)
	for _, p := range parts {
		pick := -1
		for _, i := range pm.groupOf(p) {
			if !r.nodes[i].readable() {
				continue
			}
			if a, bad := avoid[p]; bad && a == i {
				continue
			}
			pick = i
			break
		}
		if pick < 0 {
			// Only the just-failed replica (if any) remains readable;
			// better to retry it than to fail the partition.
			if a, bad := avoid[p]; bad && r.nodes[a].readable() {
				pick = a
			} else {
				return nil, p, false
			}
		}
		cover[pick] = append(cover[pick], p)
	}
	return cover, 0, true
}

// scatterRead fans a multi-partition SELECT to one live replica per
// partition and merges the partition-filtered partials.
func (r *Router) scatterRead(w http.ResponseWriter, req *http.Request, pm *PartitionMap, sel *sqlmini.Select, sql string) {
	spec := mergeSpec{limit: sel.Limit, orderIdx: -1}
	shardSQL := sql
	switch {
	case len(sel.Aggregates) > 0:
		partials, src := sqlmini.PartialAggregates(sel.Aggregates)
		spec.aggs, spec.src = sel.Aggregates, src
		shardSQL = sqlmini.Render(&sqlmini.Select{
			Table:      sel.Table,
			Aggregates: partials,
			Where:      sel.Where,
			Order:      sel.Order,
			Limit:      sel.Limit,
		})
	case sel.Order != nil:
		spec.order = sel.Order
		if len(sel.Columns) > 0 {
			idx := -1
			for i, c := range sel.Columns {
				if strings.EqualFold(c, sel.Order.Column) {
					idx = i
					break
				}
			}
			if idx >= 0 {
				spec.orderIdx = idx
			} else {
				// Inject the sort column so the merge can see it; the
				// shard sorts on the full row either way.
				cols := append(append([]string(nil), sel.Columns...), sel.Order.Column)
				spec.orderIdx = len(sel.Columns)
				spec.strip = true
				shardSQL = sqlmini.Render(&sqlmini.Select{
					Table:   sel.Table,
					Columns: cols,
					Where:   sel.Where,
					Order:   sel.Order,
					Limit:   sel.Limit,
				})
			}
		}
	default:
		spec.earlyCancel = sel.Limit >= 0
	}

	P := len(pm.Owners)
	need := make([]int, P)
	for p := range need {
		need[p] = p
	}
	avoid := make(map[int]int)

	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()

	var replies []shardReply
	var last *shardReply // remembered retryable shard answer for final relay
	rows, done := 0, false

	for round := 0; round < readRetryRounds && len(need) > 0 && !done; round++ {
		if req.Context().Err() != nil {
			return // the client is gone; nothing useful can be written
		}
		if round > 0 {
			r.readRetries.Inc()
			r.cfg.Clock.Sleep(rpcBackoff(round - 1))
		}
		cover, uncovered, ok := r.readCover(pm, need, avoid)
		if !ok {
			writeErr(w, http.StatusServiceUnavailable,
				fmt.Errorf("partition %d unavailable: no readable replica", uncovered))
			return
		}
		targets := make([]int, 0, len(cover))
		for i := range cover {
			targets = append(targets, i)
		}
		slices.Sort(targets)
		ch := r.fanStatements(ctx, req, targets, false, func(i int) server.QueryRequest {
			return server.QueryRequest{
				SQL:     shardSQL,
				PFilter: &server.PartitionFilter{Count: P, Include: cover[i]},
			}
		})
		var redo []int
		for range targets {
			rep := <-ch
			switch {
			case rep.err != nil, rep.status >= http.StatusInternalServerError:
				// Transport failure, truncated body, or shard 5xx: this
				// leg's partitions retry on the surviving replicas.
				for _, p := range cover[rep.node] {
					avoid[p] = rep.node
				}
				redo = append(redo, cover[rep.node]...)
				keep := rep
				last = &keep
			case rep.status != http.StatusOK:
				// Deterministic rejection — every replica would answer
				// the same; relay it now.
				cancel()
				relayRaw(w, rep)
				return
			default:
				replies = append(replies, rep)
				if spec.earlyCancel {
					rows += len(rep.resp.Rows)
					if rows >= spec.limit {
						done = true
						cancel()
					}
				}
			}
			if done {
				break
			}
		}
		need = redo
	}

	if r.pmap.Load() != pm {
		r.writePartitionStale(w)
		return
	}
	if len(need) > 0 && !done {
		if last != nil && last.err == nil && last.status >= http.StatusInternalServerError {
			relayRaw(w, *last)
			return
		}
		detail := ""
		if last != nil && last.err != nil {
			detail = ": " + last.err.Error()
		}
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("scan incomplete: %d partitions unavailable after retries%s", len(need), detail))
		return
	}
	out, err := mergeReplies(replies, &spec)
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// mergeReplies recombines per-shard partial results per the spec.
func mergeReplies(replies []shardReply, spec *mergeSpec) (*server.QueryResponse, error) {
	// Stable order: merge in node order, not arrival order.
	sortRepliesByNode(replies)
	out := &server.QueryResponse{Rows: [][]string{}}
	for _, rep := range replies {
		if rep.resp.DelayMillis > out.DelayMillis {
			out.DelayMillis = rep.resp.DelayMillis
		}
	}
	if len(spec.aggs) > 0 {
		return mergeAggregates(replies, spec, out)
	}
	if len(replies) == 0 {
		return out, nil
	}
	out.Columns = replies[0].resp.Columns
	if spec.order != nil {
		idx := spec.orderIdx
		if idx < 0 {
			for i, c := range out.Columns {
				if strings.EqualFold(c, spec.order.Column) {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("order column %q missing from shard response", spec.order.Column)
			}
		}
		out.Rows = mergeOrdered(replies, idx, spec.order.Desc, spec.limit)
	} else {
		for _, rep := range replies {
			out.Rows = append(out.Rows, rep.resp.Rows...)
		}
		if spec.limit >= 0 && len(out.Rows) > spec.limit {
			out.Rows = out.Rows[:spec.limit]
		}
	}
	if spec.strip {
		out.Columns = out.Columns[:len(out.Columns)-1]
		for i, row := range out.Rows {
			out.Rows[i] = row[:len(row)-1]
		}
	}
	return out, nil
}

func sortRepliesByNode(replies []shardReply) {
	for i := 1; i < len(replies); i++ {
		for j := i; j > 0 && replies[j].node < replies[j-1].node; j-- {
			replies[j], replies[j-1] = replies[j-1], replies[j]
		}
	}
}

// mergeOrdered k-way merges per-shard streams that are each already
// sorted on column idx. Ties break toward the lower node index, so the
// merged order is deterministic.
func mergeOrdered(replies []shardReply, idx int, desc bool, limit int) [][]string {
	total := 0
	for _, rep := range replies {
		total += len(rep.resp.Rows)
	}
	if limit >= 0 && limit < total {
		total = limit
	}
	out := make([][]string, 0, total)
	cursors := make([]int, len(replies))
	for len(out) < total || limit < 0 {
		best := -1
		for j := range replies {
			if cursors[j] >= len(replies[j].resp.Rows) {
				continue
			}
			if best < 0 {
				best = j
				continue
			}
			c := sqlmini.CompareCells(replies[j].resp.Rows[cursors[j]][idx], replies[best].resp.Rows[cursors[best]][idx])
			if desc {
				c = -c
			}
			if c < 0 {
				best = j
			}
		}
		if best < 0 {
			break
		}
		out = append(out, replies[best].resp.Rows[cursors[best]])
		cursors[best]++
		if limit >= 0 && len(out) == limit {
			break
		}
	}
	return out
}

// mergeAggregates combines shard-local partials into the final
// aggregate row, labeled exactly as a single node would label it.
func mergeAggregates(replies []shardReply, spec *mergeSpec, out *server.QueryResponse) (*server.QueryResponse, error) {
	out.Columns = make([]string, len(spec.aggs))
	for i, a := range spec.aggs {
		out.Columns[i] = sqlmini.AggregateName(a)
	}
	for _, rep := range replies {
		if len(rep.resp.Rows) == 0 {
			// LIMIT 0 on an aggregate yields no row; every shard ran
			// the same statement, so mirror it.
			return out, nil
		}
		if len(rep.resp.Rows) != 1 {
			return nil, fmt.Errorf("aggregate partial with %d rows from node %d", len(rep.resp.Rows), rep.node)
		}
	}
	cell := func(rep shardReply, part int) string {
		return rep.resp.Rows[0][part]
	}
	row := make([]string, len(spec.aggs))
	for i, a := range spec.aggs {
		parts := spec.src[i]
		switch a.Func {
		case sqlmini.AggCount:
			var total int64
			for _, rep := range replies {
				v, err := strconv.ParseInt(cell(rep, parts[0]), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad COUNT partial %q from node %d", cell(rep, parts[0]), rep.node)
				}
				total += v
			}
			row[i] = strconv.FormatInt(total, 10)
		case sqlmini.AggSum, sqlmini.AggAvg:
			var sum float64
			var count int64
			for _, rep := range replies {
				s, err := strconv.ParseFloat(cell(rep, parts[0]), 64)
				if err != nil {
					return nil, fmt.Errorf("bad %s partial %q from node %d", a.Func, cell(rep, parts[0]), rep.node)
				}
				sum += s
				if a.Func == sqlmini.AggAvg {
					c, err := strconv.ParseInt(cell(rep, parts[1]), 10, 64)
					if err != nil {
						return nil, fmt.Errorf("bad COUNT partial %q from node %d", cell(rep, parts[1]), rep.node)
					}
					count += c
				}
			}
			if a.Func == sqlmini.AggAvg {
				if count == 0 {
					row[i] = "0"
				} else {
					row[i] = strconv.FormatFloat(sum/float64(count), 'g', -1, 64)
				}
			} else {
				row[i] = strconv.FormatFloat(sum, 'g', -1, 64)
			}
		case sqlmini.AggMin, sqlmini.AggMax:
			// A shard whose slice matched no rows reports the engine's
			// empty-aggregate zero; the paired COUNT partial filters it
			// out of the global extreme.
			best := ""
			seen := false
			for _, rep := range replies {
				c, err := strconv.ParseInt(cell(rep, parts[1]), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad COUNT partial %q from node %d", cell(rep, parts[1]), rep.node)
				}
				if c == 0 {
					continue
				}
				v := cell(rep, parts[0])
				if !seen {
					best, seen = v, true
					continue
				}
				cmp := sqlmini.CompareCells(v, best)
				if (a.Func == sqlmini.AggMin && cmp < 0) || (a.Func == sqlmini.AggMax && cmp > 0) {
					best = v
				}
			}
			if !seen {
				best = "0" // the engine's empty-aggregate answer
			}
			row[i] = best
		default:
			return nil, fmt.Errorf("unmergeable aggregate %v", a.Func)
		}
	}
	out.Rows = [][]string{row}
	return out, nil
}

// scatterStmt is a statement the scatter-write path applies across the
// cluster: either a predicate write shipped verbatim, or a split
// multi-partition INSERT whose per-node slices are rendered under the
// scatter lock — with replication the target sets depend on migration
// state that may move between planning and execution.
type scatterStmt struct {
	sql      string
	ins      *sqlmini.Insert
	insParts []int
}

// predicateTarget extracts the table and WHERE of a predicate write so
// the scatter can pre-count the matching rows.
func predicateTarget(sql string) (string, *sqlmini.Where, bool) {
	stmt, err := sqlmini.Parse(sql)
	if err != nil {
		return "", nil, false
	}
	switch s := stmt.(type) {
	case *sqlmini.Update:
		return s.Table, s.Where, true
	case *sqlmini.Delete:
		return s.Table, s.Where, true
	}
	return "", nil, false
}

// scatterWrite applies a predicate write (or a split INSERT's slices)
// on every replica of every involved partition, holding the scatter
// lock — exclusive against all single-key group writes — so replicas
// apply it at the same point in each partition's write order. The ack
// rule is the group write's, per partition: the statement acks iff
// every involved partition has a read-serving replica that accepted
// it. An owning replica that failed while its partition still acked
// has diverged and is latched writes-only; a failed migration
// dual-write marks the partition dirty for re-copy, never failing the
// client. With no readable acceptance anywhere the first deterministic
// shard rejection relays (replicas agree on parse and constraint
// errors); a half-landed write answers 503 — re-issuing is safe for
// the idempotent statements the grammar has (INSERT re-apply errors on
// the duplicate key; UPDATE/DELETE re-apply is a no-op). The legs run
// detached from the client, so a hang-up cannot cut the fan short.
//
// Affected counts logical rows, not replica applications: a split
// INSERT acks its full row count, and a predicate write pre-counts the
// matching rows through the partition-filtered maintenance channel —
// summing per-shard counts would multiply by R and double-count
// migration copies.
func (r *Router) scatterWrite(w http.ResponseWriter, req *http.Request, pm *PartitionMap, stmt scatterStmt) {
	r.partLocks.Lock()
	defer r.partLocks.Unlock()
	if r.pmap.Load() != pm {
		r.writePartitionStale(w)
		return
	}

	P := len(pm.Owners)
	involved := make([]int, 0, P)
	if stmt.ins != nil {
		hit := make([]bool, P)
		for _, p := range stmt.insParts {
			hit[p] = true
		}
		for p, h := range hit {
			if h {
				involved = append(involved, p)
			}
		}
	} else {
		for p := 0; p < P; p++ {
			involved = append(involved, p)
		}
	}

	// Per-node roles, fixed under the lock: the partitions a node owns
	// (the write must land) and the partitions it is receiving as a
	// migration gainer (dual-write).
	owned := make(map[int][]int)
	gaining := make(map[int][]int)
	for _, p := range involved {
		any := false
		for _, i := range pm.groupOf(p) {
			if r.nodes[i].down.Load() {
				continue
			}
			owned[i] = append(owned[i], p)
			any = true
		}
		if !any {
			writeErr(w, http.StatusServiceUnavailable,
				fmt.Errorf("partition %d unavailable: no reachable replica", p))
			return
		}
		for _, g := range r.migrationGainers(pm, p) {
			if r.nodes[g].down.Load() {
				r.migrationMarkDirty(pm, p) // the copy misses this write
				continue
			}
			gaining[g] = append(gaining[g], p)
		}
	}
	targets := make([]int, 0, len(owned)+len(gaining))
	for i := range owned {
		targets = append(targets, i)
	}
	for i := range gaining {
		if _, dup := owned[i]; !dup {
			targets = append(targets, i)
		}
	}
	slices.Sort(targets)

	var affected int64
	if stmt.ins != nil {
		affected = int64(len(stmt.ins.Rows))
	} else if table, where, ok := predicateTarget(stmt.sql); ok {
		if k, known := r.keyFor(table); known {
			n, err := r.scatterCount(req.Context(), pm, table, k.name, where)
			if err != nil {
				writeErr(w, http.StatusServiceUnavailable,
					fmt.Errorf("counting matched rows before scatter write: %v", err))
				return
			}
			affected = n
		}
		// Unknown table: no pre-count — the shards will reject the
		// statement deterministically and the rejection relays below.
	}

	r.writeFanout.Inc()
	ch := r.fanStatements(req.Context(), req, targets, true, func(i int) server.QueryRequest {
		if stmt.ins == nil {
			return server.QueryRequest{SQL: stmt.sql}
		}
		member := make(map[int]bool, len(owned[i])+len(gaining[i]))
		for _, p := range owned[i] {
			member[p] = true
		}
		for _, p := range gaining[i] {
			member[p] = true
		}
		rows := make([][]sqlmini.Literal, 0, len(stmt.ins.Rows))
		for ri, row := range stmt.ins.Rows {
			if member[stmt.insParts[ri]] {
				rows = append(rows, row)
			}
		}
		return server.QueryRequest{SQL: sqlmini.Render(&sqlmini.Insert{Table: stmt.ins.Table, Rows: rows})}
	})
	byNode := make(map[int]shardReply, len(targets))
	for range targets {
		rep := <-ch
		byNode[rep.node] = rep
	}
	okNode := func(rep shardReply) bool { return rep.err == nil && rep.status == http.StatusOK }

	// A partition is applied when a READABLE owner accepted the write;
	// resync owners are write-plane only.
	allApplied := true
	for _, p := range involved {
		applied := false
		for _, i := range pm.groupOf(p) {
			if rep, sent := byNode[i]; sent && okNode(rep) && r.nodes[i].readable() {
				applied = true
				break
			}
		}
		if !applied {
			allApplied = false
			break
		}
	}

	// Dual-write outcomes first: a failed gainer leg re-queues the
	// partition for the migrator regardless of how the client fares.
	for i, parts := range gaining {
		if rep := byNode[i]; !okNode(rep) {
			for _, p := range parts {
				r.migrationMarkDirty(pm, p)
			}
		}
	}

	if !allApplied {
		anyOK := false
		var firstErr *shardReply
		for _, i := range targets {
			if _, isOwner := owned[i]; !isOwner {
				continue
			}
			rep := byNode[i]
			if okNode(rep) {
				anyOK = true
			} else if rep.err == nil && rep.status != 0 && firstErr == nil {
				keep := rep
				firstErr = &keep
			}
		}
		if !anyOK && firstErr != nil {
			relayRaw(w, *firstErr)
			return
		}
		writeErr(w, http.StatusServiceUnavailable,
			errors.New("scatter write partially applied: a partition has no read-serving replica that accepted it; retry when the cluster recovers"))
		return
	}

	// Acked. Owners whose leg failed while they stayed reachable have
	// diverged from the replica set: quarantine them writes-only.
	diverged := false
	for i := range owned {
		rep := byNode[i]
		if okNode(rep) {
			continue
		}
		r.writeFanErr.Inc()
		n := r.nodes[i]
		if n.down.Load() {
			continue // died mid-write; the transport latched it
		}
		if !n.resync.Load() {
			n.latchResync()
			r.writeDiverged.Inc()
			diverged = true
		}
	}
	if diverged {
		r.syncPeerDown()
	}

	out := server.QueryResponse{Affected: int(affected)}
	for _, i := range targets {
		if rep := byNode[i]; okNode(rep) && rep.resp.DelayMillis > out.DelayMillis {
			out.DelayMillis = rep.resp.DelayMillis
		}
	}
	writeJSON(w, http.StatusOK, &out)
}
