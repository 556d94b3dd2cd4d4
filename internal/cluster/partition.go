package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"repro/internal/parthash"
	"repro/internal/server"
	"repro/internal/sqlmini"
)

// This file is the tuple-partitioning layer: a versioned partition map
// assigning each tuple (by primary key) to exactly one owner shard, and
// the per-statement planner the router consults to route point queries
// and single-key writes to that one owner while scans scatter to every
// owner. Replication made every shard a full copy — writes fanned out
// N ways and a scan ran on one shard, so shards bought availability but
// zero capacity. Under partitioning each shard holds ~1/P of the tuples:
// single-key writes touch one shard (amplification N× → 1×, and no
// router-wide write ordering lock — rows on different shards are
// different rows, so cross-shard write order cannot diverge anything),
// and scatter scans run on all shards concurrently over 1/P-sized
// slices. Detection stays globally coherent without any new machinery:
// each shard's detector observes only its partition's tuple IDs, and the
// existing anti-entropy sketch exchange merges those per-slice sketches
// into the union view, so a coalition splitting its key range across
// partitions prices exactly as if one node saw the whole stream.

// DefaultPartitions is the partition count cmd/delaydb uses when
// -partitions is set without a value; plenty of headroom to rebalance
// onto more shards without re-hashing tuples.
const DefaultPartitions = 64

// PartitionMap is an immutable, versioned assignment of partitions to
// replica groups of owner shards. Tuples hash (by INT primary key) to
// one of P partitions; each partition has R owner nodes, primary first.
// Rebalancing installs a new map with the next version — requests
// pinned to the old version are rejected retryably, never answered from
// a shard that may no longer own the tuple.
type PartitionMap struct {
	Version uint64
	// Owners maps partition index → primary node index. It always
	// equals column 0 of Replicas; kept as its own slice because the
	// single-replica hot paths index it constantly.
	Owners []int
	// Replicas maps partition index → its full replica group (primary
	// first, then failover order off the ring). Every group has the
	// same length: min(R, nodes).
	Replicas [][]int
}

// NewPartitionMap assigns partitions to replica groups via the same
// consistent-hash ring the router uses for principals, so partition
// placement inherits the ring's balance properties. Each partition's
// group is the first `replication` distinct nodes of the ring's
// preference sequence, so replica choice is as stable as ownership.
// The partition index is pre-mixed through splitmix64 before it becomes
// a ring key: FNV-1a barely avalanches a trailing-byte change, so the
// naive keys "partition-0".."partition-63" would hash into one narrow
// arc of the ring and hand every partition to the same owner.
// vnodes <= 0 means the ring default; replication < 1 means 1, and is
// clamped to the node count.
func NewPartitionMap(version uint64, partitions, nodes, vnodes, replication int) (*PartitionMap, error) {
	if partitions < 1 {
		return nil, errors.New("cluster: partitions must be >= 1")
	}
	if nodes < 1 {
		return nil, errors.New("cluster: no nodes to own partitions")
	}
	if replication < 1 {
		replication = 1
	}
	if replication > nodes {
		replication = nodes
	}
	rg := newRing(nodes, vnodes)
	m := &PartitionMap{
		Version:  version,
		Owners:   make([]int, partitions),
		Replicas: make([][]int, partitions),
	}
	for p := range m.Owners {
		seq := rg.sequence("partition-" + strconv.FormatUint(parthash.Mix64(uint64(p)), 16))
		group := append([]int(nil), seq[:replication]...)
		m.Replicas[p] = group
		m.Owners[p] = group[0]
	}
	return m, nil
}

// normalize fills the replica groups of a map built owners-only (hand
// assembled by an operator or a test) and re-derives Owners from
// Replicas otherwise, so both views always agree.
func (m *PartitionMap) normalize() {
	if len(m.Replicas) == 0 {
		m.Replicas = make([][]int, len(m.Owners))
		for p, o := range m.Owners {
			m.Replicas[p] = []int{o}
		}
		return
	}
	if len(m.Owners) != len(m.Replicas) {
		m.Owners = make([]int, len(m.Replicas))
	}
	for p, g := range m.Replicas {
		if len(g) > 0 {
			m.Owners[p] = g[0]
		}
	}
}

// replication returns the replica-group size (1 for owners-only maps).
func (m *PartitionMap) replication() int {
	if len(m.Replicas) == 0 {
		return 1
	}
	r := 1
	for _, g := range m.Replicas {
		if len(g) > r {
			r = len(g)
		}
	}
	return r
}

// PartitionOf returns the partition a primary key hashes to. The hash
// is pinned in parthash so the shard-side partition filter agrees bit
// for bit.
func (m *PartitionMap) PartitionOf(key int64) int {
	return parthash.Index(key, len(m.Owners))
}

// OwnerOf returns the primary node index for the tuple with the given
// primary key.
func (m *PartitionMap) OwnerOf(key int64) int {
	return m.Owners[m.PartitionOf(key)]
}

// replicasOf returns the full replica group for a key's partition.
func (m *PartitionMap) replicasOf(key int64) []int {
	p := m.PartitionOf(key)
	if len(m.Replicas) == 0 {
		return []int{m.Owners[p]}
	}
	return m.Replicas[p]
}

// GroupOf returns a copy of partition p's replica group, primary
// first — the torture harness and external tooling derive rebalance
// targets from it.
func (m *PartitionMap) GroupOf(p int) []int {
	g := m.groupOf(p)
	out := make([]int, len(g))
	copy(out, g)
	return out
}

// groupOf returns partition p's replica group.
func (m *PartitionMap) groupOf(p int) []int {
	if len(m.Replicas) == 0 {
		return []int{m.Owners[p]}
	}
	return m.Replicas[p]
}

// ownerSet returns the distinct node indices holding any replica, in
// ascending order — the scatter-write target universe. Nodes owning no
// partition hold no tuples and are skipped.
func (m *PartitionMap) ownerSet() []int {
	seen := make(map[int]bool, len(m.Owners))
	out := make([]int, 0, len(m.Owners))
	for p := range m.Owners {
		for _, n := range m.groupOf(p) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Partitioned reports whether the router routes by tuple partition.
func (r *Router) Partitioned() bool { return r.pmap.Load() != nil }

// CurrentPartitionMap returns the live map (nil when partitioning is
// off). The map is immutable; callers must not mutate it.
func (r *Router) CurrentPartitionMap() *PartitionMap { return r.pmap.Load() }

// InstallPartitionMap swaps in a rebalanced map without moving any
// data — the raw fence-only install. The new map must keep the
// partition count (tuples never re-hash; only ownership moves), carry
// exactly the next version, and name only known shards. Callers that
// want the tuples to follow the map use Rebalance, which copies first
// and installs at cutover; a raw install is operator surgery, with the
// version fence guaranteeing only that no request straddles two maps.
func (r *Router) InstallPartitionMap(m *PartitionMap) error {
	if err := r.validateNextMap(m); err != nil {
		return err
	}
	r.pmapMu.Lock()
	defer r.pmapMu.Unlock()
	cur := r.pmap.Load()
	if cur == nil {
		return errors.New("cluster: partitioning is not enabled")
	}
	if m.Version != cur.Version+1 {
		return fmt.Errorf("cluster: partition map version must be %d (got %d)", cur.Version+1, m.Version)
	}
	r.pmap.Store(m)
	return nil
}

// validateNextMap checks everything about a proposed map except its
// version: partition count preserved, every replica group non-empty,
// duplicate-free, and naming only known shards. It normalizes the map
// (filling Replicas from Owners or vice versa) as a side effect.
func (r *Router) validateNextMap(m *PartitionMap) error {
	if m == nil {
		return errors.New("cluster: nil partition map")
	}
	cur := r.pmap.Load()
	if cur == nil {
		return errors.New("cluster: partitioning is not enabled")
	}
	m.normalize()
	if len(m.Owners) != len(cur.Owners) {
		return fmt.Errorf("cluster: partition count is fixed at %d (got %d)", len(cur.Owners), len(m.Owners))
	}
	for p := range m.Owners {
		g := m.groupOf(p)
		if len(g) == 0 {
			return fmt.Errorf("cluster: partition %d has no replicas", p)
		}
		seen := make(map[int]bool, len(g))
		for _, n := range g {
			if n < 0 || n >= len(r.nodes) {
				return fmt.Errorf("cluster: partition %d owned by unknown node index %d", p, n)
			}
			if seen[n] {
				return fmt.Errorf("cluster: partition %d lists node %d twice", p, n)
			}
			seen[n] = true
		}
	}
	return nil
}

// writePartitionStale answers a request caught on the wrong side of a
// partition map swap: 409 with the current version and Retry-After: 0 —
// the client refreshes its pin and retries immediately; nothing was
// served from a shard that may no longer own the tuple.
func (r *Router) writePartitionStale(w http.ResponseWriter) {
	cur := r.pmap.Load()
	r.partVerRej.Inc()
	w.Header().Set("X-Partition-Version", strconv.FormatUint(cur.Version, 10))
	w.Header().Set("Retry-After", "0")
	writeErr(w, http.StatusConflict,
		fmt.Errorf("partition map changed (current version %d); refresh and retry", cur.Version))
}

// tableKey is the routing-relevant slice of a table's schema: which
// column is the INT primary key (by name, for WHERE matching) and where
// it sits (by position, for splitting positional INSERT rows).
type tableKey struct {
	name string
	idx  int
}

// keyFor resolves a table's primary-key column, first from the snoop
// cache (CREATE TABLE statements pass through the router), then by
// pulling /admin/schema from a healthy shard — the cold path for
// routers fronting shards whose tables predate them.
func (r *Router) keyFor(table string) (tableKey, bool) {
	lc := strings.ToLower(table)
	if v, ok := r.schemas.Load(lc); ok {
		return v.(tableKey), true
	}
	r.fetchSchemas()
	if v, ok := r.schemas.Load(lc); ok {
		return v.(tableKey), true
	}
	return tableKey{}, false
}

// fetchSchemas fills the key cache from the first readable shard that
// answers; schemaMu serializes it. The fetch is not the client's to
// cancel: a statement planned without its key would misroute (an
// INSERT onto a shard that does not own the row), so only the
// ShardTimeout deadline bounds it.
func (r *Router) fetchSchemas() {
	r.schemaMu.Lock()
	defer r.schemaMu.Unlock()
	for _, i := range r.healthy() {
		tables, err := r.shardTables(context.Background(), i)
		if err != nil {
			continue
		}
		for _, t := range tables {
			r.schemas.Store(strings.ToLower(t.Name), tableKey{name: t.Key, idx: t.KeyIndex})
		}
		return
	}
}

// planKind enumerates the shapes a statement routes as.
type planKind int

const (
	// planBroadcast: DDL — every reachable shard must agree on the
	// catalog, so it rides the replicated fan-out (and its ordering
	// lock).
	planBroadcast planKind = iota
	// planSingleRead: a point query pinned to one tuple's owner.
	planSingleRead
	// planSingleWrite: a write pinned to one tuple's owner.
	planSingleWrite
	// planScatterRead: a scan or aggregate over every owner's slice,
	// recombined by the merge executor.
	planScatterRead
	// planScatterWrite: a predicate write (UPDATE/DELETE without a key
	// pin) applied on every owner's slice.
	planScatterWrite
	// planSplitInsert: a multi-row INSERT sliced into one per-owner
	// INSERT over just the rows that owner holds.
	planSplitInsert
)

// queryPlan is the planner's verdict for one statement.
type queryPlan struct {
	kind planKind
	// node is the single target (planSingleRead/planSingleWrite); -1
	// means any healthy shard (EXPLAIN — plans are identical modulo
	// slice statistics).
	node int
	// part is the partition a single read/write pins, or -1 when the
	// statement is not tuple-routable (EXPLAIN, anyWritePlan). It keys
	// the per-partition write lock and the replica group.
	part int
	// sel is the parsed statement for planScatterRead, which the merge
	// executor rewrites (partial aggregates, order-column injection).
	sel *sqlmini.Select
	// ins and insParts carry a multi-partition INSERT for
	// planSplitInsert: the parsed statement plus each row's partition.
	// The per-node slices are rendered inside the scatter-write lock,
	// because with replication the target sets depend on migration
	// state that may move between planning and execution.
	ins      *sqlmini.Insert
	insParts []int
}

// planStatement classifies sql against the partition map. A parse
// failure is answered at the edge — no shard burns work on garbage.
func (r *Router) planStatement(pm *PartitionMap, sql string) (queryPlan, error) {
	stmt, err := sqlmini.Parse(sql)
	if err != nil {
		return queryPlan{}, err
	}
	switch s := stmt.(type) {
	case *sqlmini.Select:
		if s.Explain {
			return queryPlan{kind: planSingleRead, node: -1, part: -1}, nil
		}
		if k, ok := r.keyFor(s.Table); ok {
			if key, ok := sqlmini.PKEqual(s.Where, k.name); ok {
				p := pm.PartitionOf(key)
				return queryPlan{kind: planSingleRead, node: pm.Owners[p], part: p}, nil
			}
		}
		return queryPlan{kind: planScatterRead, sel: s}, nil
	case *sqlmini.Insert:
		return r.planInsert(pm, s)
	case *sqlmini.Update:
		if k, ok := r.keyFor(s.Table); ok {
			if key, ok := sqlmini.PKEqual(s.Where, k.name); ok {
				p := pm.PartitionOf(key)
				return queryPlan{kind: planSingleWrite, node: pm.Owners[p], part: p}, nil
			}
		}
		return queryPlan{kind: planScatterWrite}, nil
	case *sqlmini.Delete:
		if k, ok := r.keyFor(s.Table); ok {
			if key, ok := sqlmini.PKEqual(s.Where, k.name); ok {
				p := pm.PartitionOf(key)
				return queryPlan{kind: planSingleWrite, node: pm.Owners[p], part: p}, nil
			}
		}
		return queryPlan{kind: planScatterWrite}, nil
	case *sqlmini.CreateTable:
		// Snoop the key column so the tuples this table will hold route
		// without a schema fetch.
		for i, col := range s.Columns {
			if col.PrimaryKey {
				r.schemas.Store(strings.ToLower(s.Table), tableKey{name: col.Name, idx: i})
				break
			}
		}
		return queryPlan{kind: planBroadcast}, nil
	case *sqlmini.DropTable:
		r.schemas.Delete(strings.ToLower(s.Table))
		return queryPlan{kind: planBroadcast}, nil
	default: // CREATE INDEX / DROP INDEX
		return queryPlan{kind: planBroadcast}, nil
	}
}

// planInsert routes an INSERT by the primary key of each row. All rows
// in one partition ship as-is to that partition's replica group; rows
// spanning partitions split into per-node INSERT slices, rendered
// later under the scatter-write lock. A row whose key cannot be read
// positionally (unknown table, short row, non-INT key) routes the
// whole statement to one shard whose engine rejects it — a
// deterministic error with no tuple applied anywhere.
func (r *Router) planInsert(pm *PartitionMap, s *sqlmini.Insert) (queryPlan, error) {
	k, ok := r.keyFor(s.Table)
	if !ok {
		return r.anyWritePlan()
	}
	parts := make([]int, len(s.Rows))
	single := -1
	multi := false
	for i, row := range s.Rows {
		if k.idx >= len(row) || row[k.idx].Kind != sqlmini.IntLit {
			return r.anyWritePlan()
		}
		parts[i] = pm.PartitionOf(row[k.idx].Int)
		if i == 0 {
			single = parts[i]
		} else if parts[i] != single {
			multi = true
		}
	}
	if !multi {
		return queryPlan{kind: planSingleWrite, node: pm.Owners[single], part: single}, nil
	}
	// Rows on multiple partitions sharing one replica group still fan
	// as a split insert; the slices per node are just identical.
	return queryPlan{kind: planSplitInsert, ins: s, insParts: parts}, nil
}

// anyWritePlan targets the first readable shard: used when a statement
// cannot be routed by key but will be rejected identically by any
// engine, so one shard's deterministic error stands for the cluster's.
func (r *Router) anyWritePlan() (queryPlan, error) {
	h := r.healthy()
	if len(h) == 0 {
		return queryPlan{}, errors.New("no healthy shards")
	}
	return queryPlan{kind: planSingleWrite, node: h[0], part: -1}, nil
}

// servePartitioned plans and dispatches one statement under the map the
// caller loaded. Admission has already run; the caller's pm pins the
// map version every routing decision and the final relay are checked
// against.
func (r *Router) servePartitioned(w http.ResponseWriter, req *http.Request, pm *PartitionMap, sql string, body []byte, scratch *bodyScratch) {
	plan, err := r.planStatement(pm, sql)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	switch plan.kind {
	case planBroadcast:
		r.fanoutWrite(w, req, "/query", body, scratch)
	case planSingleRead:
		if plan.part < 0 {
			h := r.healthy()
			if len(h) == 0 {
				writeErr(w, http.StatusServiceUnavailable, errors.New("no healthy shards"))
				return
			}
			r.partSingleRead.Inc()
			r.serveOwner(w, req, pm, h[0], body, scratch, true)
			return
		}
		r.partSingleRead.Inc()
		r.serveReplicaRead(w, req, pm, plan.part, body, scratch)
	case planSingleWrite:
		r.partSingleWrite.Inc()
		if plan.part < 0 {
			r.serveOwner(w, req, pm, plan.node, body, scratch, false)
			return
		}
		r.serveGroupWrite(w, req, pm, plan.part, body, scratch)
	case planScatterRead:
		r.partScatter.Inc()
		r.scatterRead(w, req, pm, plan.sel, sql)
	case planScatterWrite:
		r.partScatter.Inc()
		r.scatterWrite(w, req, pm, scatterStmt{sql: sql})
	case planSplitInsert:
		r.partSplit.Inc()
		r.scatterWrite(w, req, pm, scatterStmt{ins: plan.ins, insParts: plan.insParts})
	}
}

// serveOwner forwards a single-owner statement to its one shard. There
// is no failover: the owner holds the only copy of the tuple, so an
// unavailable owner is an unavailable partition, answered 503 (reads
// also exclude resync shards — a shard missing acked writes must not
// serve the only copy of a row). The response relays only after
// re-checking that the map did not change mid-flight — the reason this
// path uses call+relay rather than serving the shard handler
// directly on the client's ResponseWriter, which could not retract an
// answer written under a stale map.
func (r *Router) serveOwner(w http.ResponseWriter, req *http.Request, pm *PartitionMap, node int, body []byte, scratch *bodyScratch, read bool) {
	n := r.nodes[node]
	if read && !n.readable() || !read && n.down.Load() {
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("partition owner %s unavailable", n.name))
		return
	}
	op := forwardOp(req, "/query", body, scratch)
	op.write = !read
	resp, err := r.call(req.Context(), n, op)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("partition owner %s unreachable: %v", n.name, err))
		return
	}
	r.relayUnder(w, pm, resp)
}

// PartitionMapResponse is the GET /admin/partition-map body.
type PartitionMapResponse struct {
	Enabled     bool   `json:"enabled"`
	Version     uint64 `json:"version,omitempty"`
	Partitions  int    `json:"partitions,omitempty"`
	Replication int    `json:"replication,omitempty"`
	// Owners names the primary shard per partition.
	Owners []string `json:"owners,omitempty"`
	// Replicas names each partition's full replica group, primary
	// first. Omitted when every group is a lone primary.
	Replicas [][]string `json:"replicas,omitempty"`
}

func (r *Router) handlePartitionMapGet(w http.ResponseWriter, req *http.Request) {
	pm := r.pmap.Load()
	if pm == nil {
		writeJSON(w, http.StatusOK, PartitionMapResponse{Enabled: false})
		return
	}
	out := PartitionMapResponse{
		Enabled:     true,
		Version:     pm.Version,
		Partitions:  len(pm.Owners),
		Replication: pm.replication(),
		Owners:      make([]string, len(pm.Owners)),
	}
	for p, o := range pm.Owners {
		out.Owners[p] = r.nodes[o].name
	}
	if out.Replication > 1 {
		out.Replicas = make([][]string, len(pm.Owners))
		for p := range pm.Owners {
			g := pm.groupOf(p)
			names := make([]string, len(g))
			for i, n := range g {
				names[i] = r.nodes[n].name
			}
			out.Replicas[p] = names
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// PartitionMapUpdate is the POST /admin/partition-map and
// POST /admin/rebalance body: a proposed map at exactly the next
// version. Either Owners (one primary per partition, R=1) or Replicas
// (the full group per partition, primary first) names the assignment;
// or, rebalance-only, a bare Replication re-derives the groups from
// the ring at the new size.
type PartitionMapUpdate struct {
	Version     uint64     `json:"version"`
	Owners      []string   `json:"owners,omitempty"`
	Replicas    [][]string `json:"replicas,omitempty"`
	Replication int        `json:"replication,omitempty"`
	// Wait makes POST /admin/rebalance run the migration synchronously
	// instead of answering 202 and migrating in the background.
	Wait bool `json:"wait,omitempty"`
}

// mapFromUpdate resolves an update body to a PartitionMap. allowDerive
// permits the bare-Replication form (rebalance), which needs the
// router's ring parameters.
func (r *Router) mapFromUpdate(up *PartitionMapUpdate, allowDerive bool) (*PartitionMap, error) {
	idx := make(map[string]int, len(r.nodes))
	for i, n := range r.nodes {
		idx[n.name] = i
	}
	switch {
	case len(up.Replicas) > 0:
		m := &PartitionMap{Version: up.Version, Replicas: make([][]int, len(up.Replicas))}
		for p, names := range up.Replicas {
			g := make([]int, len(names))
			for i, name := range names {
				ni, ok := idx[name]
				if !ok {
					return nil, fmt.Errorf("partition %d: unknown node %q", p, name)
				}
				g[i] = ni
			}
			m.Replicas[p] = g
		}
		m.normalize()
		return m, nil
	case len(up.Owners) > 0:
		m := &PartitionMap{Version: up.Version, Owners: make([]int, len(up.Owners))}
		for p, name := range up.Owners {
			ni, ok := idx[name]
			if !ok {
				return nil, fmt.Errorf("partition %d: unknown node %q", p, name)
			}
			m.Owners[p] = ni
		}
		m.normalize()
		return m, nil
	case allowDerive && up.Replication > 0:
		cur := r.pmap.Load()
		if cur == nil {
			return nil, errors.New("partitioning is not enabled")
		}
		return NewPartitionMap(up.Version, len(cur.Owners), len(r.nodes), r.vnodes, up.Replication)
	default:
		return nil, errors.New("update names no owners or replicas")
	}
}

func (r *Router) handlePartitionMapPost(w http.ResponseWriter, req *http.Request) {
	if ct := req.Header.Get("Content-Type"); ct != "" && ct != "application/json" {
		writeErr(w, http.StatusUnsupportedMediaType, fmt.Errorf("content type %q; want application/json", ct))
		return
	}
	var up PartitionMapUpdate
	if err := json.NewDecoder(req.Body).Decode(&up); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	m, err := r.mapFromUpdate(&up, false)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := r.InstallPartitionMap(m); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "installed", "version": m.Version})
}

// ExecScript runs a semicolon-separated statement script through the
// router's own planner — cmd/delaydb's -init path in partitioned mode,
// where loading every shard with the full dataset (the replicated
// habit) would defeat the partitioning. Statements bypass admission
// (it is the operator's own front door) but take the exact routing and
// merge paths client queries take.
func (r *Router) ExecScript(src string) error {
	for _, stmt := range splitStatements(src) {
		body, err := json.Marshal(server.QueryRequest{SQL: stmt})
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, "http://router/query", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Identity", "cluster-init")
		rec := &recordedResponse{header: make(http.Header), code: http.StatusOK}
		if pm := r.pmap.Load(); pm != nil {
			r.servePartitioned(rec, req, pm, stmt, body, nil)
		} else {
			r.fanoutWrite(rec, req, "/query", body, nil)
		}
		if rec.code != http.StatusOK {
			return fmt.Errorf("cluster: statement %q: %s: %s",
				stmt, http.StatusText(rec.code), bytes.TrimSpace(rec.body.Bytes()))
		}
	}
	return nil
}

// splitStatements splits a script on semicolons outside string
// literals, dropping -- line comments and blank statements. The ''
// escape is two quotes, so toggling in-string per quote handles it.
func splitStatements(src string) []string {
	var out []string
	var sb strings.Builder
	inStr := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '\'':
			inStr = !inStr
			sb.WriteByte(c)
		case !inStr && c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			sb.WriteByte('\n')
		case !inStr && c == ';':
			if s := strings.TrimSpace(sb.String()); s != "" {
				out = append(out, s)
			}
			sb.Reset()
		default:
			sb.WriteByte(c)
		}
	}
	if s := strings.TrimSpace(sb.String()); s != "" {
		out = append(out, s)
	}
	return out
}
