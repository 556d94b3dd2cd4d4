package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// loadItems inserts items 1..n through the router's own planner.
func loadItems(t testing.TB, r *Router, n int) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("INSERT INTO items VALUES ")
	for i := 1; i <= n; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'v%d')", i, i)
	}
	if err := r.ExecScript(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// serveStatus sends one request straight into h on ctx and returns the
// status it answered.
func serveStatus(ctx context.Context, h http.Handler, method, path, identity, body string) int {
	req := httptest.NewRequest(method, "http://router"+path, strings.NewReader(body)).WithContext(ctx)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if identity != "" {
		req.Header.Set("X-Identity", identity)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestClientHangUpLatchesNothing: under a delay defense a client giving
// up mid-query is normal traffic. A point read and a single-key UPDATE
// whose clients already hung up must latch no replica down, and the
// write — sent detached from its client — lands on both replicas alike.
func TestClientHangUpLatchesNothing(t *testing.T) {
	const shards, key = 3, 5
	nodes := make([]*Node, shards)
	handlers := make([]http.Handler, shards)
	for i := range nodes {
		h, _ := newEmptyShard(t, 32, nil)
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		handlers[i] = h
		nodes[i] = NewHTTPNode(fmt.Sprintf("shard-%d", i), srv.URL)
	}
	r, err := NewRouter(nodes, Config{Partitions: 8, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, r, 32)
	h := r.Handler()

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sql := range []string{
		fmt.Sprintf(`SELECT v FROM items WHERE id = %d`, key),
		fmt.Sprintf(`UPDATE items SET v = 'after-hangup' WHERE id = %d`, key),
	} {
		body, _ := json.Marshal(server.QueryRequest{SQL: sql})
		serveStatus(gone, h, http.MethodPost, "/query", "quitter", string(body))
	}

	for _, n := range nodes {
		if n.Down() || n.Resync() {
			t.Errorf("%s latched (down=%v resync=%v) by a client hang-up", n.Name(), n.Down(), n.Resync())
		}
	}
	if hr := healthOf(t, h); hr.Status != "ok" {
		t.Errorf("health after hang-ups = %q, want ok: %+v", hr.Status, hr.Peers)
	}
	pm := r.CurrentPartitionMap()
	group := pm.GroupOf(pm.PartitionOf(key))
	if len(group) != 2 {
		t.Fatalf("replica group %v, want 2 members", group)
	}
	var vals []string
	for _, i := range group {
		resp, body := query(t, handlers[i], "inspector", fmt.Sprintf(`SELECT v FROM items WHERE id = %d`, key))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", nodes[i].Name(), resp.StatusCode, body)
		}
		qr := decodeQuery(t, body)
		if len(qr.Rows) != 1 {
			t.Fatalf("%s holds %d rows for key %d", nodes[i].Name(), len(qr.Rows), key)
		}
		vals = append(vals, qr.Rows[0][0])
	}
	if vals[0] != vals[1] {
		t.Fatalf("replicas diverged after a hung-up write: %s=%q %s=%q",
			nodes[group[0]].Name(), vals[0], nodes[group[1]].Name(), vals[1])
	}
	if vals[0] != "after-hangup" {
		t.Errorf("detached write not applied: both replicas hold %q", vals[0])
	}
}

// TestHungPeerCallsReturnWithinDeadline: with ShardTimeout set, a peer
// that accepts connections but never answers bounds every router path
// that reaches it — queries, admin proxies, the sketch exchange, the
// operator endpoints queued behind it, and the migrator — instead of
// pinning a lock or a goroutine on it.
func TestHungPeerCallsReturnWithinDeadline(t *testing.T) {
	release := make(chan struct{})
	reached := make(chan struct{}, 1)
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		select {
		case reached <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-req.Context().Done():
		}
	}))
	t.Cleanup(stuck.Close)
	t.Cleanup(func() { close(release) }) // runs first: frees any handler still parked
	nodes := []*Node{NewHTTPNode("hung", stuck.URL)}
	for i := 1; i <= 2; i++ {
		h, _ := newShard(t, 20, nil)
		nodes = append(nodes, NewLocalNode(fmt.Sprintf("shard-%d", i), h))
	}
	r, err := NewRouter(nodes, Config{Partitions: 8, ShardTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handler()
	revive := func() {
		nodes[0].down.Store(false)
		nodes[0].resync.Store(false)
		r.syncPeerDown()
	}
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Errorf("%s still blocked after 2s behind a hung peer", what)
		}
	}
	bg := context.Background()

	// The schema cache is cold and the hung peer is the first healthy
	// shard, so planning this read has to fetch schemas through it.
	revive()
	within("cold-schema query", func() {
		serveStatus(bg, h, http.MethodPost, "/query", "reader", `{"sql":"SELECT v FROM items WHERE id = 3"}`)
	})
	revive()
	within("GET /stats", func() { serveStatus(bg, h, http.MethodGet, "/stats", "", "") })
	revive()
	within("GET /admin/suspects", func() { serveStatus(bg, h, http.MethodGet, "/admin/suspects", "", "") })
	quoter := ""
	for i := 0; quoter == ""; i++ {
		if id := fmt.Sprintf("quoter-%d", i); r.ring.owner(id) == 0 {
			quoter = id
		}
	}
	revive()
	within("POST /admin/quote", func() { serveStatus(bg, h, http.MethodPost, "/admin/quote", quoter, `{"ids":[1,2]}`) })
	revive()
	within("ExchangeNow", func() { r.ExchangeNow() })

	// Peer-up queues behind the exchange round's lock; the round must
	// give the lock back within the deadline.
	revive()
	select {
	case <-reached:
	default:
	}
	exchanged := make(chan struct{})
	go func() {
		defer close(exchanged)
		r.ExchangeNow()
	}()
	select {
	case <-reached:
	case <-time.After(2 * time.Second):
		t.Error("the exchange round never reached the hung peer")
	}
	within("POST /admin/peer-up", func() {
		serveStatus(bg, h, http.MethodPost, "/admin/peer-up", "", `{"name":"hung"}`)
	})
	within("the exchange round behind peer-up", func() { <-exchanged })

	// A rebalance that moves a partition onto the hung peer rolls back
	// instead of copying into it forever.
	revive()
	pm := r.CurrentPartitionMap()
	owners := make([]string, len(pm.Owners))
	moved := false
	for p, o := range pm.Owners {
		owners[p] = nodes[o].Name()
		if o != 0 && !moved {
			owners[p], moved = "hung", true
		}
	}
	if !moved {
		t.Fatal("the hung peer owns every partition; nothing to move onto it")
	}
	up, _ := json.Marshal(PartitionMapUpdate{Version: pm.Version + 1, Owners: owners, Wait: true})
	within("POST /admin/rebalance wait=true onto the hung peer", func() {
		serveStatus(bg, h, http.MethodPost, "/admin/rebalance", "", string(up))
	})
}

// TestPartitionedPointReadsServedByPrimary pins the replica choice the
// benchmark prices: while a partition's primary is readable, every
// point read of it is served there, whoever asks. Spreading point
// reads over an R=2 group by principal hash instead was measured with
// frontbench's deterministic pricing replay (seed 1): zipf-read
// legit_delay_p50_ms rose from 0.0146 to 0.0318 ms, extract-scan
// legit_delay_p50_ms from 0.0123 to 0.0474 ms, and zipf-read
// extract_delay_s_per_tuple fell from 2.03 to 1.76 s — legitimate
// readers paid more and the extractor less. A placement change has to
// beat those numbers first.
func TestPartitionedPointReadsServedByPrimary(t *testing.T) {
	const shards, tuples = 4, 32
	served := make([]atomic.Int64, shards)
	nodes := make([]*Node, shards)
	for i := range nodes {
		h, _ := newEmptyShard(t, tuples, nil)
		nodes[i] = NewLocalNode(fmt.Sprintf("shard-%d", i), http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/query" {
				served[i].Add(1)
			}
			h.ServeHTTP(w, req)
		}))
	}
	r, err := NewRouter(nodes, Config{Partitions: 16, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, r, tuples)
	h := r.Handler()
	pm := r.CurrentPartitionMap()
	for key := 1; key <= tuples; key++ {
		primary := pm.GroupOf(pm.PartitionOf(int64(key)))[0]
		for _, principal := range []string{"alice", "bob", fmt.Sprintf("reader-%d", key)} {
			before := make([]int64, shards)
			for i := range served {
				before[i] = served[i].Load()
			}
			if v, ok := readValue(t, h, principal, key); !ok || v != fmt.Sprintf("v%d", key) {
				t.Fatalf("key %d as %s = (%q, %v)", key, principal, v, ok)
			}
			for i := range served {
				want := before[i]
				if i == primary {
					want++
				}
				if got := served[i].Load(); got != want {
					t.Fatalf("key %d as %s: shard-%d served %d reads, want %d (primary shard-%d)",
						key, principal, i, got-before[i], want-before[i], primary)
				}
			}
		}
	}
}
