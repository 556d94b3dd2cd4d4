package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/vclock"
)

// The one shard configuration every workload runs against.
const (
	numShards   = 4
	partitions  = 64
	replication = 2
	// delayCap is the per-tuple delay cap (dmax). Delay is charged on a
	// simulated clock, so it is accounted but never slept.
	delayCap       = 10 * time.Second
	priceCacheSize = 4096
	priceCacheLag  = 64
	loadChunk      = 200
)

// shard is one delaydb node built the way cmd/delaydb builds one:
// engine.Open → core.New → server.New.
type shard struct {
	db     *engine.Database
	shield *core.Shield
	srv    http.Handler // the server's own handler, for the ladder
}

// deployment is the cluster the benchmark drives: four shards behind a
// partitioned router, reached through the router's handler in-process.
type deployment struct {
	w       *workload
	dir     string
	shards  []*shard
	router  *cluster.Router
	front   http.Handler
	rmet    *metrics.Registry
	tracer  *tracer // nil unless built for the traced run
	closers []func()
}

// shieldConfig is the defense configuration of every shard: popularity
// pricing over the whole catalog, price cache on, detection on, no
// per-principal limiter (the benchmark's callers are not what is under
// test), charged delay on a simulated clock.
func shieldConfig(catalog int) core.Config {
	return core.Config{
		Kind:               core.ByPopularity,
		N:                  catalog,
		Alpha:              1,
		Beta:               1,
		Cap:                delayCap,
		Clock:              vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC)),
		PriceCacheSize:     priceCacheSize,
		PriceCacheEpochLag: priceCacheLag,
		Detect:             &detect.Config{},
	}
}

// routerConfig is the router configuration of every deployment.
// Admission is opened wide: the callers are the load, and the edge
// limiter's refusal of them is not what is measured.
func routerConfig(m *metrics.Registry) cluster.Config {
	return cluster.Config{
		Partitions:  partitions,
		Replication: replication,
		AdmitRate:   1e9,
		AdmitBurst:  1e9,
		MaxInFlight: 1 << 30,
		Metrics:     m,
	}
}

// deploy builds, loads and warms one cluster for w under dir. tr, when
// non-nil, wraps every shard handler handed to a node or listener.
func deploy(w *workload, dir string, tr *tracer) (d *deployment, err error) {
	d = &deployment{w: w, dir: dir, tracer: tr}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	var nodes []*cluster.Node
	for i := 0; i < numShards; i++ {
		db, err := engine.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), engine.WithWAL(false))
		if err != nil {
			return nil, err
		}
		d.closers = append(d.closers, func() { db.Close() })
		shield, err := core.New(db, shieldConfig(w.catalog))
		if err != nil {
			return nil, err
		}
		srv, err := server.New(shield)
		if err != nil {
			return nil, err
		}
		sh := &shard{db: db, shield: shield, srv: srv.Handler()}
		d.shards = append(d.shards, sh)
		var h http.Handler = sh.srv
		if tr != nil {
			h = tr.wrap(i, h)
		}
		name := fmt.Sprintf("shard-%d", i)
		if !w.loopback {
			nodes = append(nodes, cluster.NewLocalNode(name, h))
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		go hs.Serve(ln)
		d.closers = append(d.closers, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
		})
		nodes = append(nodes, cluster.NewHTTPNode(name, "http://"+ln.Addr().String()))
	}
	d.rmet = metrics.NewRegistry()
	d.router, err = cluster.NewRouter(nodes, routerConfig(d.rmet))
	if err != nil {
		return nil, err
	}
	d.front = d.router.Handler()
	if err := d.load(); err != nil {
		return nil, err
	}
	return d, d.warm()
}

// load creates the items table and inserts the catalog through the
// router, so placement goes through the partitioned split-insert path.
func (d *deployment) load() error {
	if err := d.router.ExecScript(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		return err
	}
	var sb strings.Builder
	for lo := 1; lo <= d.w.catalog; lo += loadChunk {
		sb.Reset()
		sb.WriteString("INSERT INTO items VALUES ")
		for k := lo; k < lo+loadChunk && k <= d.w.catalog; k++ {
			if k > lo {
				sb.WriteString(", ")
			}
			sb.WriteString("(")
			sb.WriteString(strconv.Itoa(k))
			sb.WriteString(", '")
			sb.WriteString(d.w.initialValue(int64(k)))
			sb.WriteString("')")
		}
		if err := d.router.ExecScript(sb.String()); err != nil {
			return fmt.Errorf("loading catalog: %w", err)
		}
	}
	return nil
}

// warm fills each engine's buffer pool and plan cache directly, below
// the shield, so warm-up leaves no access counts behind and pricing on
// a fresh deployment depends on the seed alone.
func (d *deployment) warm() error {
	for _, sh := range d.shards {
		for _, sql := range []string{
			`SELECT * FROM items`,
			`SELECT * FROM items WHERE id = 1`,
			`SELECT * FROM items WHERE id BETWEEN 1 AND 100`,
		} {
			if _, err := sh.db.Exec(sql); err != nil {
				return fmt.Errorf("warming shard: %w", err)
			}
		}
	}
	return nil
}

// localRouter returns a router over the same shard handlers through
// in-process nodes: the deployment's own router unless its shards sit
// behind listeners, else a second one, for the pricing replay and the
// ladder's remote-hop rung.
func (d *deployment) localRouter() (http.Handler, error) {
	if !d.w.loopback {
		return d.front, nil
	}
	nodes := make([]*cluster.Node, len(d.shards))
	for i, sh := range d.shards {
		var h http.Handler = sh.srv
		if d.tracer != nil {
			h = d.tracer.wrap(i, h)
		}
		nodes[i] = cluster.NewLocalNode(fmt.Sprintf("shard-%d", i), h)
	}
	r, err := cluster.NewRouter(nodes, routerConfig(nil))
	if err != nil {
		return nil, err
	}
	return r.Handler(), nil
}

// close stops the listeners, closes the engines and removes the shard
// files.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
	os.RemoveAll(d.dir)
}
