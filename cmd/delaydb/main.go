// Command delaydb serves a delay-defended database over HTTP — the
// paper's front door as a runnable server.
//
// Usage:
//
//	delaydb -dir ./data -addr :8080 -n 100000 [-alpha 1.0] [-beta 2.0]
//	        [-cap 10s] [-decay 1.0] [-policy popularity|updaterate]
//	        [-rate 0] [-burst 10] [-subnets] [-reginterval 0]
//	        [-wal] [-walsync] [-walgroup=false] [-walgroupwindow 200us]
//	        [-deadline 0] [-scanworkers 0] [-plancache -1] [-detect] [-detect-grace 0.08]
//	        [-detect-cap 64] [-detect-jaccard 0.35]
//	        [-readheadertimeout 5s] [-idletimeout 2m] [-drain 30s]
//
// Endpoints: POST /query {"sql": "..."} (identity from X-Identity header
// or client address), POST /register {"identity": "..."}, GET /stats,
// GET /metrics (instrument snapshot as JSON, including the delay-seconds
// histogram, rejection counters, and detection gauges), GET /healthz,
// GET /admin/suspects (ranked extraction suspects when -detect is on).
//
// Cluster modes:
//
//	delaydb -cluster 4 [-partitions 64] [-route hash|rr|least]
//	        [-antientropy 5s] [-antientropy-floor 0.01] [-admit-rate 100]
//	        [-admit-burst 200] [-maxinflight 1024] ...
//	delaydb -router -peers http://10.0.0.1:8080,http://10.0.0.2:8080 ...
//
// -cluster N opens N full-replica shards under -dir (shard-0 … shard-N-1,
// each running the -init script) and serves the consistent-hash cluster
// router in front of them: reads route by policy with failover, writes
// fan out to every reachable shard in one router-serialized order, and
// a periodic anti-entropy round merges per-principal detection sketches
// across shards so identity rotation across the cluster still prices
// like extraction. A peer back from an outage rejoins writes-only
// ("resync" in /healthz) until an operator restores its data and
// confirms POST /admin/peer-up, which alone returns it to the read
// rotation. -router instead fronts already-running delaydb shards over
// HTTP; data flags are ignored. The router serves the same /query,
// /register, /healthz, /metrics surface plus GET /stats?node=<name>
// pinning and POST /admin/peer-up.
//
// -partitions P switches both cluster modes from full replication to
// hash partitioning: tuples map (by INT primary key, via a versioned
// partition map) to exactly one owner shard. Point queries and
// single-key writes route to the owner alone, multi-row INSERTs split
// into per-owner slices, and scans/aggregates scatter to every owner
// and merge at the front door (order-preserving merge for ORDER BY,
// partial-aggregate combination, LIMIT early-cancel). The -init script
// then runs through the router so every row loads onto its owner.
// -replication R places each partition on R shards: a single-key write
// applies to every replica in router order and acks once a read-serving
// replica has it, point reads fail over inside the replica group, and
// scans pick one live replica per partition. -shard-timeout bounds every
// router→shard RPC — queries, writes, admin proxies, schema fetches,
// health probes, the sketch exchange and migration; a shard slower than
// the deadline is treated as failed and latched out of the read plane,
// but a call whose client hung up first never latches, and writes run
// detached from the client so a hang-up cannot split a replica group.
// The live map is served at
// GET /admin/partition-map; POST /admin/rebalance with {"version": v+1,
// "owners": [...]} (or "replicas") starts the background tuple
// migrator, which streams the moved partitions owner→owner with
// dual-write fencing and installs the new map only once every slice is
// copied — GET /admin/rebalance reports its progress, and a failed
// migration rolls the map back. Requests may pin X-Partition-Version
// and are rejected retryably (409) when the map has moved on.
//
// With -deadline set, a query whose policy delay outlives the budget is
// cancelled and answered with HTTP 504; the delay is still charged, so
// impatient clients cannot probe prices for free.
//
// On SIGTERM or SIGINT the server drains: the listener closes, in-flight
// queries (policy delays included) get up to -drain to finish, then the
// engine flushes and closes so the next start recovers nothing. A second
// signal aborts the drain immediately.
//
// Fault injection (testing only): set DELAYDB_FAULTS to a failpoint spec
// such as "pager.read=err@p0.001;wal.append=latency:2ms@every10" to arm
// the storage failpoints at startup, and DELAYDB_FAULT_SEED to make
// probabilistic rules deterministic. See internal/fault.Parse for the
// grammar. Unset means zero overhead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	delaydefense "repro"
	"repro/internal/cluster"
	"repro/internal/fault"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		log.Fatalf("delaydb: %v", err)
	}
}

// run is main with its environment made explicit so the kill test can
// drive a whole server lifecycle in-process: args are the command-line
// flags, stdout receives the startup banner, and ready (when non-nil)
// is sent the listener's concrete address once the server is accepting.
func run(args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("delaydb", flag.ContinueOnError)
	var (
		dir         = fs.String("dir", "./delaydb-data", "database directory")
		addr        = fs.String("addr", ":8080", "listen address")
		n           = fs.Int("n", 100_000, "dataset size used by the delay formulas")
		alpha       = fs.Float64("alpha", 1.0, "assumed workload skew (Zipf parameter)")
		beta        = fs.Float64("beta", 2.0, "extraction penalty exponent")
		capDur      = fs.Duration("cap", 10*time.Second, "maximum delay per tuple (dmax)")
		decay       = fs.Float64("decay", 1.0, "access-count decay rate (1 = keep full history)")
		policy      = fs.String("policy", "popularity", "delay policy: popularity or updaterate")
		c           = fs.Float64("c", 1.0, "update-rate policy constant (Eq 9)")
		rate        = fs.Float64("rate", 0, "per-identity queries/second (0 = unlimited)")
		burst       = fs.Float64("burst", 10, "per-identity burst")
		subnets     = fs.Bool("subnets", false, "aggregate identities by /24 (IPv4) or /48 (IPv6)")
		regInterval = fs.Duration("reginterval", 0, "minimum interval between new registrations (0 = off)")
		deadline    = fs.Duration("deadline", 0, "per-request query deadline; exceeding it returns 504 with the delay still charged (0 = none)")
		scanWorkers = fs.Int("scanworkers", 0, "max goroutines per full table scan (0 = number of CPUs, 1 = sequential)")
		wal         = fs.Bool("wal", false, "enable write-ahead logging with crash recovery")
		walSync     = fs.Bool("walsync", false, "fsync the WAL on every commit (implies -wal)")
		walGroup    = fs.Bool("walgroup", true, "coalesce concurrent commits into shared WAL writes and fsyncs (group commit)")
		walWindow   = fs.Duration("walgroupwindow", delaydefense.DefaultWALGroupWindow, "upper bound on how long a group-commit leader accumulates concurrent commits")
		initFile    = fs.String("init", "", "SQL script (semicolon-separated) executed on the admin path at startup")
		priceCache  = fs.Int("pricecache", 0, "delay price cache capacity in entries (0 = disabled)")
		priceLag    = fs.Uint64("pricecachelag", 0, "tracker mutations a cached price may trail by (0 = exact)")
		planCache   = fs.Int("plancache", -1, "prepared-statement plan cache capacity in entries (-1 = default, 0 = disabled)")

		readHeaderTimeout = fs.Duration("readheadertimeout", 5*time.Second, "time limit for reading a request's headers (slowloris guard)")
		idleTimeout       = fs.Duration("idletimeout", 2*time.Minute, "keep-alive connection idle limit")
		drain             = fs.Duration("drain", 30*time.Second, "shutdown grace for in-flight queries after SIGTERM/SIGINT")

		detectOn      = fs.Bool("detect", false, "enable extraction detection (coverage sketches + escalating surcharges)")
		detectGrace   = fs.Float64("detect-grace", 0.08, "coverage fraction below which no surcharge applies")
		detectCap     = fs.Float64("detect-cap", 64, "maximum delay multiplier for detected extractors")
		detectJaccard = fs.Float64("detect-jaccard", 0.35, "signature similarity threshold for coalition clustering")

		clusterN    = fs.Int("cluster", 0, "serve N full-replica shards in this process behind the cluster router (0 = single node)")
		routerOnly  = fs.Bool("router", false, "serve a data-less cluster router fronting the -peers shards")
		peers       = fs.String("peers", "", "comma-separated shard base URLs for -router mode (e.g. http://10.0.0.1:8080,http://10.0.0.2:8080)")
		route       = fs.String("route", "hash", "cluster read-routing policy: hash, rr, or least")
		aeEvery     = fs.Duration("antientropy", cluster.DefaultExchangeEvery, "interval between anti-entropy sketch-exchange rounds in cluster/router mode (0 = off)")
		aeFloor     = fs.Float64("antientropy-floor", cluster.DefaultExportFloor, "minimum local coverage fraction before a principal's sketches are gossiped")
		admitRate   = fs.Float64("admit-rate", cluster.DefaultAdmitRate, "router edge admission: per-principal queries/second")
		admitBurst  = fs.Float64("admit-burst", cluster.DefaultAdmitBurst, "router edge admission: per-principal burst")
		maxInFlight = fs.Int("maxinflight", cluster.DefaultMaxInFlight, "router edge admission: max queries in flight across the cluster")
		partitions  = fs.Int("partitions", 0, "hash-partition tuples across shards into this many partitions (0 = full replication); point queries route to the owner shard, scans scatter-gather")
		replication = fs.Int("replication", 1, "replica count per partition in partitioned cluster mode: writes apply to every replica, point reads fail over inside the group, scans pick one live replica per partition")
		shardTO     = fs.Duration("shard-timeout", 0, "deadline on every router→shard RPC in cluster/router mode — queries, writes, admin, schema, probe, sketch-exchange and migration calls; an RPC exceeding it counts as a shard failure and latches the peer, while one whose client hung up first never does, and writes run detached from the client (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The failpoint env knobs arm before any storage I/O so open-time
	// recovery is injectable too.
	if spec := os.Getenv("DELAYDB_FAULTS"); spec != "" {
		var seed uint64 = 1
		if s := os.Getenv("DELAYDB_FAULT_SEED"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return fmt.Errorf("DELAYDB_FAULT_SEED: %w", err)
			}
			seed = v
		}
		reg, err := fault.Parse(spec, seed)
		if err != nil {
			return fmt.Errorf("DELAYDB_FAULTS: %w", err)
		}
		fault.Enable(reg)
		defer fault.Disable()
		fmt.Fprintf(stdout, "delaydb: fault injection armed: %s\n", spec)
	}

	cfg := delaydefense.Config{
		N:                    *n,
		Alpha:                *alpha,
		Beta:                 *beta,
		C:                    *c,
		Cap:                  *capDur,
		DecayRate:            *decay,
		QueryRate:            *rate,
		QueryBurst:           *burst,
		SubnetAggregation:    *subnets,
		RegistrationInterval: *regInterval,
		PriceCacheSize:       *priceCache,
		PriceCacheEpochLag:   *priceLag,
	}
	if *detectOn {
		cfg.Detect = &delaydefense.DetectConfig{
			Policy:           delaydefense.EscalationPolicy{Grace: *detectGrace, Cap: *detectCap},
			JaccardThreshold: *detectJaccard,
		}
	}
	switch *policy {
	case "popularity":
		cfg.Kind = delaydefense.ByPopularity
	case "updaterate":
		cfg.Kind = delaydefense.ByUpdateRate
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	var opts []delaydefense.EngineOption
	if *wal || *walSync {
		opts = append(opts, delaydefense.WithWAL(*walSync))
		if !*walGroup {
			opts = append(opts, delaydefense.WithWALGroupWindow(0))
		} else if *walWindow != delaydefense.DefaultWALGroupWindow {
			opts = append(opts, delaydefense.WithWALGroupWindow(*walWindow))
		}
	}
	if *scanWorkers > 0 {
		opts = append(opts, delaydefense.WithScanWorkers(*scanWorkers))
	}
	if *planCache >= 0 {
		opts = append(opts, delaydefense.WithPlanCache(*planCache))
	}
	// serveAndDrain owns the listener lifecycle every mode shares: serve
	// h until SIGTERM/SIGINT, drain in-flight queries (policy delays
	// included) for up to -drain, then run closeAll so engines flush and
	// the next start recovers nothing. A second signal aborts the drain.
	serveAndDrain := func(h http.Handler, banner func(net.Addr), closeAll func() error) error {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			closeAll()
			return err
		}
		srv := &http.Server{
			Handler: h,
			// ReadHeaderTimeout bounds header dribbling; the request *body*
			// and response are governed by the query deadline instead, since
			// a legitimate delayed query can stay open for the full policy
			// delay. IdleTimeout reclaims parked keep-alive connections.
			ReadHeaderTimeout: *readHeaderTimeout,
			IdleTimeout:       *idleTimeout,
		}

		banner(ln.Addr())
		fmt.Fprintf(stdout, "delaydb: instrument snapshot at GET /metrics\n")
		if ready != nil {
			ready <- ln.Addr().String()
		}

		// Serve until the listener closes (shutdown) or the server dies.
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()

		sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
		defer stop()

		select {
		case err := <-serveErr:
			closeAll()
			return err
		case <-sigCtx.Done():
			// stop() restores default signal handling, so a second
			// SIGTERM kills immediately.
			stop()
			fmt.Fprintf(stdout, "delaydb: signal received, draining for up to %v\n", *drain)
			shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
			err := srv.Shutdown(shutCtx)
			cancel()
			if err != nil {
				fmt.Fprintf(stdout, "delaydb: drain incomplete: %v\n", err)
			}
			<-serveErr // Serve has returned http.ErrServerClosed
			if cerr := closeAll(); cerr != nil {
				return fmt.Errorf("closing database: %w", cerr)
			}
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return fmt.Errorf("drain: %w", err)
			}
			fmt.Fprintf(stdout, "delaydb: drained and closed cleanly\n")
			return nil
		}
	}

	// openNode opens one data directory with the shared config and runs
	// the init script against it; used once for single-node mode and per
	// shard for -cluster. runInit is false in partitioned cluster mode,
	// where the script must flow through the router instead so each
	// INSERT row lands only on its owner shard.
	openNode := func(dataDir string, runInit bool) (*delaydefense.DB, http.Handler, error) {
		db, err := delaydefense.Open(dataDir, cfg, opts...)
		if err != nil {
			return nil, nil, err
		}
		if runInit && *initFile != "" {
			script, err := os.ReadFile(*initFile)
			if err != nil {
				db.Close()
				return nil, nil, fmt.Errorf("reading init script: %w", err)
			}
			results, err := db.ExecScript(string(script))
			if err != nil {
				db.Close()
				return nil, nil, fmt.Errorf("init script (%s): %w", dataDir, err)
			}
			fmt.Fprintf(stdout, "delaydb: init script ran %d statements in %s\n", len(results), dataDir)
		}
		h, err := db.HandlerWithDeadline(*deadline)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		return db, h, nil
	}

	if *routerOnly && *clusterN > 0 {
		return errors.New("-router and -cluster are mutually exclusive")
	}
	if *routerOnly || *clusterN > 0 {
		pol, err := cluster.ParsePolicy(*route)
		if err != nil {
			return err
		}
		var (
			nodes   []*cluster.Node
			closers []func() error
		)
		closeAll := func() error {
			var first error
			for _, c := range closers {
				if err := c(); err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		if *routerOnly {
			if *peers == "" {
				return errors.New("-router requires -peers")
			}
			for i, raw := range strings.Split(*peers, ",") {
				base := strings.TrimRight(strings.TrimSpace(raw), "/")
				if base == "" {
					continue
				}
				nodes = append(nodes, cluster.NewHTTPNode(fmt.Sprintf("shard-%d", i), base))
			}
			if len(nodes) == 0 {
				return errors.New("-peers lists no shard URLs")
			}
		} else {
			for i := 0; i < *clusterN; i++ {
				db, h, err := openNode(filepath.Join(*dir, fmt.Sprintf("shard-%d", i)), *partitions == 0)
				if err != nil {
					closeAll()
					return err
				}
				closers = append(closers, db.Close)
				nodes = append(nodes, cluster.NewLocalNode(fmt.Sprintf("shard-%d", i), h))
			}
		}
		rt, err := cluster.NewRouter(nodes, cluster.Config{
			Policy:       pol,
			AdmitRate:    *admitRate,
			AdmitBurst:   *admitBurst,
			MaxInFlight:  *maxInFlight,
			Partitions:   *partitions,
			Replication:  *replication,
			ShardTimeout: *shardTO,
		})
		if err != nil {
			closeAll()
			return err
		}
		if *partitions > 0 && *clusterN > 0 && *initFile != "" {
			script, err := os.ReadFile(*initFile)
			if err != nil {
				closeAll()
				return fmt.Errorf("reading init script: %w", err)
			}
			if err := rt.ExecScript(string(script)); err != nil {
				closeAll()
				return fmt.Errorf("init script (via router): %w", err)
			}
			fmt.Fprintf(stdout, "delaydb: init script partitioned across %d shards\n", len(nodes))
		}
		if *aeEvery > 0 {
			rt.StartAntiEntropy(*aeEvery, *aeFloor)
			// Stop the exchange loop before the shards close under it.
			closers = append([]func() error{func() error { rt.StopAntiEntropy(); return nil }}, closers...)
		}
		mode := "cluster"
		if *routerOnly {
			mode = "router"
		}
		banner := func(a net.Addr) {
			layout := "replicated"
			if *partitions > 0 {
				layout = fmt.Sprintf("%d partitions", *partitions)
				if *replication > 1 {
					layout = fmt.Sprintf("%d partitions x %d replicas", *partitions, *replication)
				}
			}
			fmt.Fprintf(stdout, "delaydb: %s of %d shards on %s (%s, route=%s, antientropy=%v, admit=%g qps)\n",
				mode, len(nodes), a, layout, pol, *aeEvery, *admitRate)
		}
		return serveAndDrain(rt.Handler(), banner, closeAll)
	}

	db, h, err := openNode(*dir, true)
	if err != nil {
		return err
	}
	banner := func(a net.Addr) {
		fmt.Fprintf(stdout, "delaydb: serving %s on %s (policy=%s, cap=%v, N=%d, deadline=%v)\n",
			*dir, a, *policy, *capDur, *n, *deadline)
	}
	return serveAndDrain(h, banner, db.Close)
}
