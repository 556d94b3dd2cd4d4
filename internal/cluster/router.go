package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
	"repro/internal/server"
	"repro/internal/vclock"
)

// Policy selects which healthy shard serves a read.
type Policy int

const (
	// PolicyHash routes by consistent hash of the principal, so one
	// principal's queries land on one shard — its detector sees the
	// whole local stream, and anti-entropy only has to repair the
	// adversary who deliberately rotates identities or headers.
	PolicyHash Policy = iota
	// PolicyRoundRobin spreads reads evenly regardless of principal.
	PolicyRoundRobin
	// PolicyLeastLoaded routes to the shard with the fewest live
	// requests — delay-priced queries can pin a shard for seconds, so
	// live in-flight counts beat any static spread.
	PolicyLeastLoaded
)

// ParsePolicy maps the -route flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "", "hash":
		return PolicyHash, nil
	case "rr", "roundrobin", "round-robin":
		return PolicyRoundRobin, nil
	case "least", "leastloaded", "least-loaded":
		return PolicyLeastLoaded, nil
	}
	return 0, fmt.Errorf("cluster: unknown routing policy %q (want hash, rr, or least)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "rr"
	case PolicyLeastLoaded:
		return "least"
	default:
		return "hash"
	}
}

// Defaults for the admission-control knobs. The per-principal rate is
// deliberately loose — fine-grained fairness lives in each shard's
// limiter and delay gate; the edge only stops the traffic no shard
// should ever see.
const (
	DefaultAdmitRate     = 100.0
	DefaultAdmitBurst    = 200.0
	DefaultAdmitMax      = 65536
	DefaultMaxInFlight   = 1024
	DefaultExchangeEvery = 5 * time.Second
	DefaultExportFloor   = 0.01
)

// Config parameterizes a Router. The zero value is usable.
type Config struct {
	// Policy is the read-routing policy.
	Policy Policy
	// AdmitRate and AdmitBurst shape the per-principal edge token
	// bucket (queries/second). 0 means the defaults.
	AdmitRate  float64
	AdmitBurst float64
	// AdmitMaxPrincipals bounds the edge limiter's memory.
	AdmitMaxPrincipals int
	// MaxInFlight caps queries in flight across the whole cluster; at
	// the cap the router answers 429 without touching any shard.
	MaxInFlight int
	// VNodes is the consistent-hash virtual node count per shard.
	VNodes int
	// Partitions, when > 0, hash-partitions tuples across the shards
	// instead of replicating: each of the Partitions partitions gets
	// a replica group of owner shards (assigned on the ring), point
	// statements route to the tuple's group alone, and scans
	// scatter-gather across one live replica per partition. 0 keeps
	// full replication.
	Partitions int
	// Replication is the replica-group size per partition (clamped to
	// the node count); <= 1 means one owner per partition. With R > 1
	// single-key writes apply to every replica in the router's order
	// and ack when at least one readable replica confirms; point reads
	// fail over inside the group.
	Replication int
	// ShardTimeout bounds every router→shard RPC — queries, writes,
	// admin proxies, schema fetches, health probes, the sketch exchange
	// and migration — response body included. A shard that exceeds it
	// counts as a peer error (down-latch) rather than pinning the
	// router's in-flight slots, locks or exchange round. 0 disables the
	// per-RPC deadline.
	ShardTimeout time.Duration
	// Clock drives the limiter and the anti-entropy staleness gauge.
	// nil means the real clock.
	Clock vclock.Clock
	// Metrics receives the cluster_* instruments. nil means a fresh
	// registry (served at the router's /metrics either way).
	Metrics *metrics.Registry
}

// Router is the cluster front door. Create with NewRouter, mount via
// Handler.
type Router struct {
	nodes []*Node
	ring  *ring
	cfg   Config
	mux   *http.ServeMux
	h     http.Handler
	limit *ratelimit.IdentityLimiter

	// pmap is the live partition map; nil means replicated mode. Swaps
	// (operator rebalances) serialize on pmapMu; readers load the
	// pointer once per request and every routing decision plus the
	// final relay check against that one map.
	pmap   atomic.Pointer[PartitionMap]
	pmapMu sync.Mutex
	// schemas caches each table's primary-key column (tableKey), fed by
	// snooping CREATE TABLE and lazily by GET /admin/schema from a
	// shard; schemaMu serializes the lazy fetch.
	schemas  sync.Map
	schemaMu sync.Mutex

	rr       counterRR
	inflight *metrics.Gauge

	// Write ordering: a single-key group write holds partLocks.RLock
	// plus its partition's mutex — writes to different partitions run
	// concurrently, writes inside one partition (and the migrator's
	// fenced copy of it) serialize. A scatter write and an all-node
	// write (replicated mode, DDL, /register) hold partLocks
	// exclusively, serializing with every other write at once. Either
	// way a write completes on all its replicas before the next one to
	// the same rows begins, so replicas apply non-commutative writes in
	// one (the router's) order — otherwise two concurrent UPDATEs to one
	// row could commit in opposite orders on different replicas and
	// silently diverge them. Reads never take these locks. vnodes is
	// kept so a rebalance can re-derive ring placement at a new
	// replication factor.
	partLocks sync.RWMutex
	partMu    []sync.Mutex
	vnodes    int

	// mig is the live migration (nil when none); migMu serializes
	// Rebalance/CatchUpPeer admission, migLast keeps the last finished
	// run's progress for /healthz and GET /admin/rebalance.
	mig     atomic.Pointer[migration]
	migMu   sync.Mutex
	migLast atomic.Pointer[MigrationProgress]

	routed        *metrics.Counter
	routedPolicy  *metrics.Counter
	readFailover  *metrics.Counter
	writeFanout   *metrics.Counter
	writeFanErr   *metrics.Counter
	writeDiverged *metrics.Counter
	admitRej      *metrics.Counter
	inflightRej   *metrics.Counter
	peerErrors    *metrics.Counter
	peerDown      *metrics.Gauge
	peerResync    *metrics.Gauge

	partSingleRead  *metrics.Counter
	partSingleWrite *metrics.Counter
	partScatter     *metrics.Counter
	partSplit       *metrics.Counter
	partVerRej      *metrics.Counter

	rpcTimeouts  *metrics.Counter
	readRetries  *metrics.Counter
	migPartsDone *metrics.Counter
	migTuples    *metrics.Counter

	ae struct {
		mu        sync.Mutex
		marks     []uint64
		lastRound time.Time
		stop      chan struct{}
		done      chan struct{}
	}
	aeRounds     *metrics.Counter
	aeBytes      *metrics.Counter
	aePrincipals *metrics.Counter
	aeRejected   *metrics.Counter
	aeErrors     *metrics.Counter
}

// counterRR is the round-robin cursor, a mutex instead of an atomic so
// the skip-down-peers walk stays race-simple.
type counterRR struct {
	mu sync.Mutex
	n  int
}

// NewRouter fronts the given shard nodes.
func NewRouter(nodes []*Node, cfg Config) (*Router, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	names := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == nil || n.name == "" {
			return nil, errors.New("cluster: nil or unnamed node")
		}
		if names[n.name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.name)
		}
		names[n.name] = true
	}
	if cfg.AdmitRate <= 0 {
		cfg.AdmitRate = DefaultAdmitRate
	}
	if cfg.AdmitBurst <= 0 {
		cfg.AdmitBurst = DefaultAdmitBurst
	}
	if cfg.AdmitMaxPrincipals <= 0 {
		cfg.AdmitMaxPrincipals = DefaultAdmitMax
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	limit, err := ratelimit.NewIdentityLimiter(cfg.AdmitRate, cfg.AdmitBurst, cfg.AdmitMaxPrincipals, cfg.Clock)
	if err != nil {
		return nil, err
	}

	r := &Router{
		nodes:  nodes,
		ring:   newRing(len(nodes), cfg.VNodes),
		cfg:    cfg,
		mux:    http.NewServeMux(),
		limit:  limit,
		vnodes: cfg.VNodes,
	}
	if cfg.Partitions > 0 {
		pm, err := NewPartitionMap(1, cfg.Partitions, len(nodes), cfg.VNodes, cfg.Replication)
		if err != nil {
			return nil, err
		}
		r.pmap.Store(pm)
		r.partMu = make([]sync.Mutex, cfg.Partitions)
	}
	m := cfg.Metrics
	r.inflight = m.Gauge("cluster_inflight")
	r.routed = m.Counter("cluster_routed_total")
	r.routedPolicy = m.Counter("cluster_routed_" + cfg.Policy.String() + "_total")
	r.readFailover = m.Counter("cluster_read_failovers_total")
	r.writeFanout = m.Counter("cluster_write_fanouts_total")
	r.writeFanErr = m.Counter("cluster_write_fanout_errors_total")
	r.writeDiverged = m.Counter("cluster_write_diverged_total")
	r.admitRej = m.Counter("cluster_admission_rejected_total")
	r.inflightRej = m.Counter("cluster_inflight_rejected_total")
	r.peerErrors = m.Counter("cluster_peer_errors_total")
	r.peerDown = m.Gauge("cluster_peer_down")
	r.peerResync = m.Gauge("cluster_peer_resync")
	r.partSingleRead = m.Counter("cluster_partition_single_reads_total")
	r.partSingleWrite = m.Counter("cluster_partition_single_writes_total")
	r.partScatter = m.Counter("cluster_partition_scatter_total")
	r.partSplit = m.Counter("cluster_partition_split_inserts_total")
	r.partVerRej = m.Counter("cluster_partition_version_rejects_total")
	r.rpcTimeouts = m.Counter("cluster_rpc_timeouts_total")
	r.readRetries = m.Counter("cluster_read_retries_total")
	r.migPartsDone = m.Counter("cluster_migration_partitions_total")
	r.migTuples = m.Counter("cluster_migration_tuples_total")
	m.GaugeFunc("cluster_partitions", func() float64 {
		if pm := r.pmap.Load(); pm != nil {
			return float64(len(pm.Owners))
		}
		return 0
	})
	r.aeRounds = m.Counter("cluster_antientropy_rounds_total")
	r.aeBytes = m.Counter("cluster_antientropy_sketch_bytes_total")
	r.aePrincipals = m.Counter("cluster_antientropy_principals_total")
	r.aeRejected = m.Counter("cluster_antientropy_rejected_total")
	r.aeErrors = m.Counter("cluster_antientropy_errors_total")
	m.GaugeFunc("cluster_nodes", func() float64 { return float64(len(nodes)) })
	m.GaugeFunc("cluster_antientropy_merge_lag_seconds", r.mergeLag)
	r.ae.marks = make([]uint64, len(nodes))

	r.mux.HandleFunc("POST /query", r.handleQuery)
	r.mux.HandleFunc("POST /register", r.handleRegister)
	r.mux.HandleFunc("GET /healthz", r.handleHealth)
	r.mux.HandleFunc("GET /metrics", m.Handler().ServeHTTP)
	r.mux.HandleFunc("GET /stats", r.proxyGet("/stats"))
	r.mux.HandleFunc("GET /admin/topk", r.proxyGet("/admin/topk"))
	r.mux.HandleFunc("GET /admin/suspects", r.handleSuspectsAgg)
	r.mux.HandleFunc("POST /admin/quote", r.handleQuoteProxy)
	r.mux.HandleFunc("POST /admin/peer-up", r.handlePeerUp)
	r.mux.HandleFunc("GET /admin/partition-map", r.handlePartitionMapGet)
	r.mux.HandleFunc("POST /admin/partition-map", r.handlePartitionMapPost)
	r.mux.HandleFunc("GET /admin/rebalance", r.handleRebalanceGet)
	r.mux.HandleFunc("POST /admin/rebalance", r.handleRebalancePost)
	r.mux.HandleFunc("POST /admin/resync", r.handleResync)
	r.h = server.WithRecovery(http.HandlerFunc(r.dispatch), m.Counter("cluster_panics_total"))
	return r, nil
}

// dispatch short-circuits the mux for POST /query — the hot path every
// point query takes — and defers everything else (including the 405
// for wrong-method /query) to the full route table.
func (r *Router) dispatch(w http.ResponseWriter, req *http.Request) {
	if req.Method == http.MethodPost && req.URL.Path == "/query" {
		r.handleQuery(w, req)
		return
	}
	r.mux.ServeHTTP(w, req)
}

// Handler returns the router's HTTP handler, panic-recovery wrapped
// like a single node's front door.
func (r *Router) Handler() http.Handler { return r.h }

// Nodes returns the routed shard set.
func (r *Router) Nodes() []*Node { return r.nodes }

func identity(req *http.Request) string {
	if id := req.Header.Get("X-Identity"); id != "" {
		return id
	}
	return req.RemoteAddr
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, server.ErrorResponse{Error: err.Error()})
}

// healthy returns the indices of peers eligible to serve reads: not
// latched down and not in writes-only resync.
func (r *Router) healthy() []int {
	out := make([]int, 0, len(r.nodes))
	for i, n := range r.nodes {
		if n.readable() {
			out = append(out, i)
		}
	}
	return out
}

// reachable returns the indices of peers on the write plane: everything
// not latched down, including resync peers — fan-out writes must keep
// reaching them or they fall further behind while awaiting resync.
func (r *Router) reachable() []int {
	out := make([]int, 0, len(r.nodes))
	for i, n := range r.nodes {
		if !n.down.Load() {
			out = append(out, i)
		}
	}
	return out
}

// syncPeerDown recounts the down/resync latch gauges after any latch
// change.
func (r *Router) syncPeerDown() {
	var down, resync int64
	for _, n := range r.nodes {
		if n.down.Load() {
			down++
		} else if n.resync.Load() {
			resync++
		}
	}
	r.peerDown.Set(down)
	r.peerResync.Set(resync)
}

// isSelect reports whether sql's first keyword is SELECT — the only
// read-only statement the engine's grammar has. Everything else
// (INSERT, UPDATE, DELETE, CREATE, and garbage the shard will 400)
// takes the write fan-out path.
func isSelect(sql string) bool {
	s := strings.TrimLeft(sql, " \t\r\n(")
	return len(s) >= 6 && strings.EqualFold(s[:6], "SELECT")
}

// bodyScratch pools the per-query forwarding state the hot path would
// otherwise allocate fresh: the read buffer and the re-readable reader
// the shard consumes the body through. Local shards serve synchronously
// inside the handler, so the handler's own reference bounds the
// lifetime; remote forwards hand the transport its own counted
// reference (scratchBody), because net/http may keep draining a
// request body briefly after RoundTrip returns. The buffer goes back
// to the pool when the last reference releases — never while any
// transport could still read it.
type bodyScratch struct {
	bytes.Reader
	buf  [2048]byte
	refs atomic.Int32
}

func (s *bodyScratch) Close() error { return nil }

func (s *bodyScratch) retain() { s.refs.Add(1) }

func (s *bodyScratch) release() {
	if s.refs.Add(-1) == 0 {
		scratchPool.Put(s)
	}
}

// scratchBody is a remote forward's view of a pooled scratch: its own
// read cursor over the shared buffer, returning the scratch's counted
// reference on the Close the transport guarantees to make.
type scratchBody struct {
	bytes.Reader
	s      *bodyScratch
	closed atomic.Bool
}

func (b *scratchBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.s.release()
	}
	return nil
}

var scratchPool = sync.Pool{New: func() any { return new(bodyScratch) }}

// readBody drains r into the scratch buffer, spilling to a heap slice
// only for oversized bodies (bulk writes — off the hot path anyway).
func readBody(r io.Reader, s *bodyScratch) ([]byte, error) {
	n := 0
	for {
		m, err := r.Read(s.buf[n:])
		n += m
		if err == io.EOF {
			return s.buf[:n], nil
		}
		if err != nil {
			return nil, err
		}
		if n == len(s.buf) {
			rest, err := io.ReadAll(r)
			if err != nil {
				return nil, err
			}
			return append(append(make([]byte, 0, n+len(rest)), s.buf[:n]...), rest...), nil
		}
	}
}

var sqlKeyToken = []byte(`"sql"`)

// sniffSelect classifies a raw /query body without a full JSON decode.
// certain is false whenever the body's shape leaves ANY doubt — a key
// before "sql", duplicate "sql" keys (encoding/json keeps the last,
// the sniffer sees the first), escape sequences or a closing quote in
// the statement's first keyword — and the caller must fall back to
// json.Unmarshal. The asymmetric stakes set the bar: misrouting a read
// to the write fan-out just burns replica CPU, but misrouting a write
// to a single shard diverges the replicas, so the fast path only
// answers when the full decode could not possibly disagree.
func sniffSelect(body []byte) (isSel, certain bool) {
	if bytes.Count(body, sqlKeyToken) != 1 {
		return false, false
	}
	skip := func(i int) int {
		for i < len(body) {
			switch body[i] {
			case ' ', '\t', '\r', '\n':
				i++
			default:
				return i
			}
		}
		return i
	}
	i := skip(0)
	if i >= len(body) || body[i] != '{' {
		return false, false
	}
	i = skip(i + 1)
	if !bytes.HasPrefix(body[i:], sqlKeyToken) {
		return false, false
	}
	i = skip(i + len(sqlKeyToken))
	if i >= len(body) || body[i] != ':' {
		return false, false
	}
	i = skip(i + 1)
	if i >= len(body) || body[i] != '"' {
		return false, false
	}
	i++
	// Raw spaces and parens before the keyword mirror isSelect's trim;
	// escaped whitespace (\t, \n,  ) has a backslash the keyword
	// check below rejects, and raw control bytes are invalid JSON the
	// shard will 400 on either path.
	for i < len(body) && (body[i] == ' ' || body[i] == '(') {
		i++
	}
	if i+6 > len(body) {
		return false, false
	}
	const want = "select"
	for j := 0; j < 6; j++ {
		c := body[i+j]
		if c == '\\' || c == '"' {
			return false, false
		}
		if c|0x20 != want[j] {
			return false, true // a plain first keyword that is not SELECT
		}
	}
	return true, true
}

// readOrder returns the node indices to try for a read, preferred
// shard first, per the configured policy. Down peers are excluded;
// later entries are the failover sequence.
func (r *Router) readOrder(principal string) []int {
	switch r.cfg.Policy {
	case PolicyRoundRobin:
		h := r.healthy()
		if len(h) == 0 {
			return nil
		}
		r.rr.mu.Lock()
		start := r.rr.n % len(h)
		r.rr.n++
		r.rr.mu.Unlock()
		out := make([]int, 0, len(h))
		out = append(out, h[start:]...)
		return append(out, h[:start]...)
	case PolicyLeastLoaded:
		h := r.healthy()
		if len(h) == 0 {
			return nil
		}
		best := 0
		for i := 1; i < len(h); i++ {
			if r.nodes[h[i]].inflight.Load() < r.nodes[h[best]].inflight.Load() {
				best = i
			}
		}
		h[0], h[best] = h[best], h[0]
		return h
	default: // PolicyHash
		seq := r.ring.sequence(principal)
		out := seq[:0]
		for _, i := range seq {
			if r.nodes[i].readable() {
				out = append(out, i)
			}
		}
		return out
	}
}

// relay copies a shard response to the client verbatim.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	if ct := req.Header.Get("Content-Type"); ct != "" && ct != "application/json" {
		writeErr(w, http.StatusUnsupportedMediaType, fmt.Errorf("content type %q; want application/json", ct))
		return
	}
	scratch := scratchPool.Get().(*bodyScratch)
	scratch.refs.Store(1)
	defer scratch.release()
	body, err := readBody(req.Body, scratch)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}

	// Classify before admission. Replicated mode only needs the
	// read/write bit, which the sniffer answers without a JSON decode
	// on the hot path; partitioned mode always decodes — the planner
	// needs the statement itself — and fences the client's pinned map
	// version first, so stale clients learn the new version without
	// burning admission tokens.
	pm := r.pmap.Load()
	var sql string
	var isSel bool
	if pm != nil {
		w.Header().Set("X-Partition-Version", strconv.FormatUint(pm.Version, 10))
		if pin := req.Header.Get("X-Partition-Version"); pin != "" {
			if v, perr := strconv.ParseUint(pin, 10, 64); perr != nil || v != pm.Version {
				r.writePartitionStale(w)
				return
			}
		}
		var q server.QueryRequest
		if err := json.Unmarshal(body, &q); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		if q.SQL == "" {
			writeErr(w, http.StatusBadRequest, errors.New("empty sql"))
			return
		}
		sql = q.SQL
	} else {
		var certain bool
		isSel, certain = sniffSelect(body)
		if !certain {
			var q server.QueryRequest
			if err := json.Unmarshal(body, &q); err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
				return
			}
			if q.SQL == "" {
				writeErr(w, http.StatusBadRequest, errors.New("empty sql"))
				return
			}
			isSel = isSelect(q.SQL)
		}
	}

	// Admission: the global in-flight cap, then the per-principal
	// bucket — both answered at the edge, before any shard is touched.
	// The cap is a reserve-then-check on the gauge itself (not a read
	// followed by a separate increment), so concurrent arrivals cannot
	// overshoot MaxInFlight.
	if cur := r.inflight.AddGet(1); cur > int64(r.cfg.MaxInFlight) {
		r.inflight.Dec()
		r.inflightRej.Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			fmt.Errorf("cluster at capacity (%d queries in flight)", cur-1))
		return
	}
	defer r.inflight.Dec()
	principal := identity(req)
	if !r.limit.Allow(principal) {
		r.admitRej.Inc()
		// Tell the backoff client exactly when its bucket refills —
		// a static guess either hammers the edge early or idles past
		// the token.
		w.Header().Set("Retry-After", retryAfterSecs(r.limit.RetryAfter(principal)))
		writeErr(w, http.StatusTooManyRequests,
			errors.New("edge rate limit exceeded; retry later"))
		return
	}
	r.routed.Inc()
	r.routedPolicy.Inc()

	if pm != nil {
		r.servePartitioned(w, req, pm, sql, body, scratch)
		return
	}
	if isSel {
		r.routeRead(w, req, principal, body, scratch)
		return
	}
	r.fanoutWrite(w, req, "/query", body, scratch)
}

// retryAfterSecs renders a refill wait as a Retry-After value, rounding
// up so the retry lands after the token exists.
func retryAfterSecs(d time.Duration) string {
	if d <= 0 {
		return "0"
	}
	return strconv.FormatInt(int64(math.Ceil(d.Seconds())), 10)
}

// routeRead tries the policy's preference sequence until a shard
// answers. An unreachable shard latches down and the read fails over;
// a shard that answers — any status — ends the walk.
func (r *Router) routeRead(w http.ResponseWriter, req *http.Request, principal string, body []byte, scratch *bodyScratch) {
	// Hash-affinity fast path: healthy owner, no preference-sequence
	// allocation, inbound request reused. This is the shape virtually
	// every point query takes.
	tried := -1
	if r.cfg.Policy == PolicyHash {
		if i := r.ring.owner(principal); r.nodes[i].readable() {
			if r.nodes[i].direct != nil {
				r.serveDirect(w, req, r.nodes[i], "/query", body, scratch)
				return
			}
			resp, err := r.call(req.Context(), r.nodes[i], forwardOp(req, "/query", body, scratch))
			if err == nil {
				relay(w, resp)
				return
			}
			tried = i
		}
	}
	first := true
	for _, i := range r.readOrder(principal) {
		if req.Context().Err() != nil {
			return // the client is gone; nothing useful can be written
		}
		if i == tried {
			continue // already failed above; latched down since
		}
		if !first || tried >= 0 {
			r.readFailover.Inc()
		}
		first = false
		if r.nodes[i].direct != nil {
			r.serveDirect(w, req, r.nodes[i], "/query", body, scratch)
			return
		}
		resp, err := r.call(req.Context(), r.nodes[i], forwardOp(req, "/query", body, scratch))
		if err != nil {
			continue
		}
		relay(w, resp)
		return
	}
	writeErr(w, http.StatusServiceUnavailable, errors.New("no healthy shards"))
}

// serveDirect serves a single-target read by invoking a local shard's
// handler on the client's own ResponseWriter — no recorder, no
// response copy, no relay. Only nodes with a direct handler qualify: a
// shard living in the router's process cannot die independently of the
// router, so skipping the transport layer forfeits no failover.
func (r *Router) serveDirect(w http.ResponseWriter, req *http.Request, n *Node, path string, body []byte, scratch *bodyScratch) {
	u, err := n.urlFor(path)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	// The cached URL is handed out by pointer: handlers treat req.URL
	// as read-only (the shard mux only matches on it), so sharing one
	// parsed value across requests is safe and saves the per-query
	// copy.
	req.URL = u
	req.Host = u.Host
	req.RequestURI = ""
	if scratch != nil {
		scratch.Reset(body)
		req.Body = scratch
	} else {
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	req.ContentLength = int64(len(body))
	if req.RemoteAddr != "" {
		req.Header.Set("X-Forwarded-For", req.RemoteAddr)
	}
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	n.direct.ServeHTTP(w, req)
}

// fanoutWrite broadcasts a write to every reachable shard (including
// writes-only resync peers — they must keep receiving new writes or
// they fall further behind) concurrently, holding partLocks
// exclusively: each fan-out finishes on every shard before the next
// write begins, so all replicas apply non-commutative writes in one
// total order. It settles like a group write whose owners are every
// reachable shard: the write acks only when a read-serving shard
// accepted it, and a shard that missed an acked write leaves the read
// path.
func (r *Router) fanoutWrite(w http.ResponseWriter, req *http.Request, path string, body []byte, scratch *bodyScratch) {
	r.partLocks.Lock()
	defer r.partLocks.Unlock()

	targets := r.reachable()
	if len(targets) == 0 {
		writeErr(w, http.StatusServiceUnavailable, errors.New("no healthy shards"))
		return
	}
	op := forwardOp(req, path, body, scratch)
	op.write = true
	r.settleWrite(w, nil, -1, targets, len(targets), r.fanRaw(req.Context(), targets, op))
}

// handleRegister broadcasts a registration to every healthy shard so
// the principal exists wherever its queries may route.
func (r *Router) handleRegister(w http.ResponseWriter, req *http.Request) {
	if ct := req.Header.Get("Content-Type"); ct != "" && ct != "application/json" {
		writeErr(w, http.StatusUnsupportedMediaType, fmt.Errorf("content type %q; want application/json", ct))
		return
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	var reg server.RegisterRequest
	if err := json.Unmarshal(body, &reg); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if reg.Identity == "" {
		writeErr(w, http.StatusBadRequest, errors.New("empty identity"))
		return
	}
	r.fanoutWrite(w, req, "/register", body, nil)
}

// PeerHealth is one peer's entry in the router's /healthz body.
type PeerHealth struct {
	Name     string `json:"name"`
	Status   string `json:"status"`
	InFlight int64  `json:"in_flight"`
}

// HealthResponse is the router's /healthz body: "ok" with every peer
// up, "degraded" while any peer is latched down (unreachable) or
// resync (reachable, receiving writes, but out of the read path until
// caught up and confirmed via POST /admin/peer-up). The cluster still
// serves either way — reads route around the hole, writes go to
// everything reachable. In partitioned mode it also carries the map
// version, partition/replication shape, and the live (or last)
// migration progress, so operators and the torture harness share one
// readiness signal.
type HealthResponse struct {
	Status string       `json:"status"`
	Policy string       `json:"policy"`
	Peers  []PeerHealth `json:"peers"`

	PartitionVersion uint64 `json:"partition_version,omitempty"`
	Partitions       int    `json:"partitions,omitempty"`
	Replication      int    `json:"replication,omitempty"`
	// Migration reports the in-flight rebalance (or the last finished
	// one); nil when no rebalance has ever run.
	Migration *MigrationProgress `json:"migration,omitempty"`
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	out := HealthResponse{Status: "ok", Policy: r.cfg.Policy.String()}
	for _, n := range r.nodes {
		st := "ok"
		switch {
		case n.down.Load():
			st = "down"
			out.Status = "degraded"
		case n.resync.Load():
			st = "resync"
			out.Status = "degraded"
		}
		out.Peers = append(out.Peers, PeerHealth{Name: n.name, Status: st, InFlight: n.inflight.Load()})
	}
	if pm := r.pmap.Load(); pm != nil {
		out.PartitionVersion = pm.Version
		out.Partitions = len(pm.Owners)
		out.Replication = pm.replication()
		out.Migration = r.migrationProgress()
	}
	writeJSON(w, http.StatusOK, out)
}

// proxyGet forwards a GET (with its query string) to the first healthy
// shard — ?node=<name> pins a specific one. Shard-local diagnostics
// like /stats are per-replica; the pin lets operators walk the fleet.
func (r *Router) proxyGet(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		var n *Node
		if want := req.URL.Query().Get("node"); want != "" {
			for _, cand := range r.nodes {
				if cand.name == want {
					n = cand
					break
				}
			}
			if n == nil {
				writeErr(w, http.StatusNotFound, fmt.Errorf("unknown node %q", want))
				return
			}
		} else {
			h := r.healthy()
			if len(h) == 0 {
				writeErr(w, http.StatusServiceUnavailable, errors.New("no healthy shards"))
				return
			}
			n = r.nodes[h[0]]
		}
		target := path
		if raw := req.URL.Query(); len(raw) > 0 {
			raw.Del("node")
			if enc := raw.Encode(); enc != "" {
				target += "?" + enc
			}
		}
		resp, err := r.call(req.Context(), n, rpc{path: target})
		if err != nil {
			writeErr(w, http.StatusBadGateway, fmt.Errorf("shard %s unreachable: %w", n.name, err))
			return
		}
		relay(w, resp)
	}
}

// handleSuspectsAgg answers GET /admin/suspects with the cluster-wide
// coalition view: every reachable shard's suspect list merged by
// principal, keeping each principal's maximum escalation. A single
// shard's list only reflects the stream that shard saw — under
// partitioning (or identity rotation) that is a fraction of a
// coalition's activity, and an operator reading one shard would
// under-count exactly the adversaries the anti-entropy exchange exists
// to catch. ?node=<name> still pins one shard for per-replica
// inspection.
func (r *Router) handleSuspectsAgg(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("node") != "" {
		r.proxyGet("/admin/suspects")(w, req)
		return
	}
	k := 20
	if q := req.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > 10000 {
			writeErr(w, http.StatusBadRequest, errors.New("k must be in [1, 10000]"))
			return
		}
		k = n
	}
	targets := r.reachable()
	if len(targets) == 0 {
		writeErr(w, http.StatusServiceUnavailable, errors.New("no healthy shards"))
		return
	}
	effective := func(s detect.Suspect) float64 {
		if s.CoalitionCoverage > s.Coverage {
			return s.CoalitionCoverage
		}
		return s.Coverage
	}
	merged := make(map[string]detect.Suspect)
	enabled := false
	answered := 0
	for _, i := range targets {
		resp, err := r.call(req.Context(), r.nodes[i], rpc{path: "/admin/suspects?k=" + strconv.Itoa(k)})
		if err != nil {
			continue
		}
		var sr server.SuspectsResponse
		derr := json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || derr != nil {
			continue
		}
		answered++
		enabled = enabled || sr.Enabled
		for _, s := range sr.Suspects {
			cur, ok := merged[s.Principal]
			if !ok || s.Multiplier > cur.Multiplier ||
				(s.Multiplier == cur.Multiplier && effective(s) > effective(cur)) {
				merged[s.Principal] = s
			}
		}
	}
	if answered == 0 {
		writeErr(w, http.StatusBadGateway, errors.New("no shard answered"))
		return
	}
	out := make([]detect.Suspect, 0, len(merged))
	for _, s := range merged {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool {
		ea, eb := effective(out[a]), effective(out[b])
		if ea != eb {
			return ea > eb
		}
		return out[a].Principal < out[b].Principal
	})
	if len(out) > k {
		out = out[:k]
	}
	writeJSON(w, http.StatusOK, server.SuspectsResponse{Enabled: enabled, Suspects: out})
}

// handleQuoteProxy forwards an extraction quote to the principal's
// hash-owner shard, with the same edge hardening a shard applies.
func (r *Router) handleQuoteProxy(w http.ResponseWriter, req *http.Request) {
	if ct := req.Header.Get("Content-Type"); ct != "" && ct != "application/json" {
		writeErr(w, http.StatusUnsupportedMediaType, fmt.Errorf("content type %q; want application/json", ct))
		return
	}
	body, err := io.ReadAll(req.Body)
	if err != nil || !json.Valid(body) {
		writeErr(w, http.StatusBadRequest, errors.New("malformed request body"))
		return
	}
	for _, i := range r.readOrder(identity(req)) {
		if req.Context().Err() != nil {
			return // the client is gone
		}
		resp, err := r.call(req.Context(), r.nodes[i], forwardOp(req, "/admin/quote", body, nil))
		if err != nil {
			continue
		}
		relay(w, resp)
		return
	}
	writeErr(w, http.StatusServiceUnavailable, errors.New("no healthy shards"))
}

// PeerUpRequest is the POST /admin/peer-up body: an operator's
// assertion that the named peer holds the replica data again (restart
// plus resync from a healthy peer), clearing both the down latch and
// the writes-only resync latch. This is the ONLY path back into the
// read rotation — the automatic health probe stops at resync, because
// reachability proves nothing about the writes the peer missed.
type PeerUpRequest struct {
	Name string `json:"name"`
}

func (r *Router) handlePeerUp(w http.ResponseWriter, req *http.Request) {
	if ct := req.Header.Get("Content-Type"); ct != "" && ct != "application/json" {
		writeErr(w, http.StatusUnsupportedMediaType, fmt.Errorf("content type %q; want application/json", ct))
		return
	}
	var pr PeerUpRequest
	if err := json.NewDecoder(req.Body).Decode(&pr); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if pr.Name == "" {
		writeErr(w, http.StatusBadRequest, errors.New("empty peer name"))
		return
	}
	for _, n := range r.nodes {
		if n.name == pr.Name {
			n.down.Store(false)
			n.resync.Store(false)
			// Reset every source watermark: the revived peer missed
			// rounds (and may have restarted), so the next exchange
			// re-pulls full history and re-converges it.
			r.ae.mu.Lock()
			for j := range r.ae.marks {
				r.ae.marks[j] = 0
			}
			r.ae.mu.Unlock()
			r.syncPeerDown()
			writeJSON(w, http.StatusOK, map[string]string{"status": "up", "name": pr.Name})
			return
		}
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("unknown peer %q", pr.Name))
}
