package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/fault"
)

const (
	// setups is how many times a measured run builds its deployment;
	// setup_s is their median.
	setups = 3
	warmUp = time.Second
	// probeTime is how long each kind of op the closed loop does not
	// issue is timed afterwards; see probe.
	probeTime = 6 * time.Second
	// pricingReads is the length of the legitimate stream the pricing
	// replay runs before the extractor's pass. Without decay prices keep
	// falling as counts grow, so the legitimate median is taken over the
	// second half.
	pricingReads = 150000
	// tailQuantile is the tail every latency is reported at. On a 2-vCPU
	// host the 99th percentile spread between runs by up to half its
	// median (bursts of host load decide it); the 95th was steadier on
	// every op kind, by up to four times. See README.md.
	tailQuantile = 0.95
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts every checked answer of a run.
type tally struct {
	attempted, failed int
}

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) addLoop(r *loopResult) {
	t.attempted += r.ops
	t.failed += r.failed
}

// loopCallers builds one caller per closed-loop role of w.
func loopCallers(d *deployment, ks *keySpace, seed int64, ck *checker) []*caller {
	cs := make([]*caller, callers)
	for i, r := range d.w.roles {
		cs[i] = newCaller(i, d, d.front, newStream(d.w, ks, seed, i, r), ck)
	}
	return cs
}

// warmLoop runs the closed loop unmeasured, so caches, pools and the Go
// runtime settle, and returns sample-buffer sizes for a run of dur.
func warmLoop(cs []*caller, dur time.Duration, t *tally) [numKinds]int {
	var hint [numKinds]int
	for k := range hint {
		hint[k] = 1 << 16
	}
	r := runLoop(cs, warmUp, hint)
	t.addLoop(r)
	return r.capHint(dur)
}

// runMeasured is one untraced run: end-to-end metrics only. armed, when
// non-nil, is a failpoint rule enabled for the measured loop alone.
func runMeasured(w *workload, seed int64, dur time.Duration, dataDir string, armed *fault.Rule) (*result, error) {
	ks, err := newKeySpace(w.catalog)
	if err != nil {
		return nil, err
	}
	var setupSecs []float64
	build := func(name string) (*deployment, error) {
		runtime.GC()
		t0 := time.Now()
		d, err := deploy(w, filepath.Join(dataDir, name), nil)
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		return d, err
	}
	var t tally

	// Every set-up is timed. All but the last two are built only for
	// that; the next serves the pricing replay on fresh state, the last
	// the measured loop.
	for i := 0; i < setups-2; i++ {
		d, err := build(fmt.Sprintf("setup-%d", i))
		if err != nil {
			return nil, err
		}
		d.close()
	}
	da, err := build("pricing")
	if err != nil {
		return nil, err
	}
	legitMs, extractS, err := pricingReplay(da, ks, seed, &t)
	da.close()
	if err != nil {
		return nil, err
	}
	d, err := build("measured")
	if err != nil {
		return nil, err
	}
	defer d.close()

	ck := newChecker(w)
	cs := loopCallers(d, ks, seed, ck)
	hint := warmLoop(cs, dur, &t)
	if armed != nil {
		fault.Enable(fault.NewRegistry(uint64(seed)).Add(*armed))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	loop := runLoop(cs, dur, hint)
	runtime.ReadMemStats(&m1)
	fault.Disable()
	t.addLoop(loop)

	hb, ha := harnessAllocs()
	ops := float64(loop.ops)
	m := map[string]metric{
		"throughput_ops_s":          {loop.throughput(), "1/s"},
		"alloc_bytes_per_op":        {float64(m1.TotalAlloc-m0.TotalAlloc)/ops - hb, "B"},
		"allocs_per_op":             {float64(m1.Mallocs-m0.Mallocs)/ops - ha, "count"},
		"setup_s":                   {median(setupSecs), "s"},
		"legit_delay_p50_ms":        {legitMs, "ms"},
		"extract_delay_s_per_tuple": {extractS, "s"},
	}
	fmt.Fprintf(os.Stderr, "frontbench: %s seed %d: %d ops in %v, harness %.3f\n",
		w.name, seed, loop.ops, loop.elapsed.Round(time.Millisecond), loop.harnessFrac(callers))

	// Op kinds the loop does not issue are timed by a probe loop after
	// the main one, so every workload reports every kind.
	for k := opKind(0); k < numKinds; k++ {
		var p50, p95 float64
		if w.issues(k) {
			p50, p95 = loop.quantileMs(k, 0.50), loop.quantileMs(k, tailQuantile)
		} else {
			p50, p95 = probe(d, ks, seed, ck, k, &t)
		}
		m[kindNames[k]+"_p50_ms"] = metric{p50, "ms"}
		m[kindNames[k]+"_p95_ms"] = metric{p95, "ms"}
	}
	finalCheck(d, ck, &t)
	m["ok_frac"] = metric{float64(t.attempted-t.failed) / float64(t.attempted), "frac"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// probe times ops of kind k, which the workload's loop does not issue.
// The first caller switches to kind k alone while the others keep the
// workload's own traffic, so the probed ops meet the workload's
// contention and only kind k is counted. It warms up, then measures
// like the main loop, and returns the median and tail of kind k in
// milliseconds.
func probe(d *deployment, ks *keySpace, seed int64, ck *checker, k opKind, t *tally) (p50, p95 float64) {
	cs := make([]*caller, callers)
	for i := range cs {
		r := d.w.roles[i]
		if i == 0 {
			r = [numKinds]role{opRead: roleReader, opScan: roleExtractor, opWrite: roleWriter}[k]
		}
		idx := probeCaller + i
		cs[i] = newCaller(idx, d, d.front, newStream(d.w, ks, seed, idx, r), ck)
	}
	hint := warmLoop(cs, probeTime, t)
	res := runLoop(cs, probeTime, hint)
	t.addLoop(res)
	return res.quantileMs(k, 0.50), res.quantileMs(k, tailQuantile)
}

// pricingReplay prices the workload's seed deterministically on a fresh
// deployment: one caller, in order, pricingReads Zipf point reads from
// rotating legitimate principals, then an extractor's first full pass
// over the catalog in scanWidth-tuple scans. It returns the median
// charged delay of the second half of the reads, once prices have
// settled, and the pass's charged delay per catalog tuple. Writes do
// not move popularity prices, so the replay issues reads only. Prices
// are the shards' alone, so the replay goes through an in-process
// router even where the workload's shards sit behind listeners: the
// same prices, at a fraction of the time.
func pricingReplay(d *deployment, ks *keySpace, seed int64, t *tally) (legitMs, extractS float64, err error) {
	front, err := d.localRouter()
	if err != nil {
		return 0, 0, err
	}
	ck := newChecker(d.w)
	s := newStream(d.w, ks, seed, legitReplay, roleReader)
	c := newCaller(legitReplay, d, front, s, ck)
	var delays []float64
	for i := 0; i < pricingReads; i++ {
		o := s.nextOp()
		_, ok := c.do(o)
		t.add(ok)
		if o.kind != opRead {
			continue
		}
		ms, ok := delayMillis(c.w.buf.Bytes())
		if !ok {
			return 0, 0, fmt.Errorf("pricing replay: no delay in answer %q", c.w.buf.Bytes())
		}
		delays = append(delays, ms)
	}
	xs := newStream(d.w, ks, seed, extractReplay, roleExtractor)
	xs.next = 1
	x := newCaller(extractReplay, d, front, xs, ck)
	total := 0.0
	for i := 0; i < d.w.catalog/scanWidth; i++ {
		_, ok := x.do(xs.scanOp())
		t.add(ok)
		ms, ok := delayMillis(x.w.buf.Bytes())
		if !ok {
			return 0, 0, fmt.Errorf("pricing replay: no delay in answer %q", x.w.buf.Bytes())
		}
		total += ms
	}
	return median(delays[len(delays)/2:]), total / 1e3 / float64(d.w.catalog), nil
}

// finalCheck reads back every key the run wrote, once every write has
// returned: through the router, and through each shard's handler
// directly. The router must answer with the key's last acked value (or
// either of two writes that overlapped at the end), and exactly
// replication shards must hold the key, each with the router's value.
func finalCheck(d *deployment, ck *checker, t *tally) {
	c := newCaller(checkCaller, d, d.front, nil, ck)
	for key := int64(1); key <= int64(d.w.catalog); key++ {
		if !ck.wasWritten(key) {
			continue
		}
		sql := fmt.Sprintf(`{"sql":"SELECT * FROM items WHERE id = %d"}`, key)
		at := ck.now()
		status, body := c.raw(d.front, sql)
		var want []byte
		n := 0
		eachRow(body, func(id, v []byte) {
			n++
			if k, ok := parseUint(id); ok && int64(k) == key {
				want = append([]byte(nil), v...)
			}
		})
		val, ok := ck.parseValue(key, want)
		ok = ok && status == http.StatusOK && n == 1 && ck.readOK(key, val, at, at)
		t.add(ok)
		if !ok {
			fmt.Fprintf(os.Stderr, "frontbench: key %d reads %.200s through the router after the run\n", key, body)
			continue
		}
		holders, good := 0, true
		for _, sh := range d.shards {
			status, body := c.raw(sh.srv, sql)
			eachRow(body, func(id, v []byte) {
				holders++
				k, ok := parseUint(id)
				good = good && ok && int64(k) == key && bytes.Equal(v, want)
			})
			good = good && status == http.StatusOK
		}
		t.add(good && holders == replication)
		if !good || holders != replication {
			fmt.Fprintf(os.Stderr, "frontbench: key %d: %d shards hold it (want %d), not all with the router's %s\n", key, holders, replication, want)
		}
	}
}

// raw sends one /query body to h as the check caller and returns the
// answer, which stays valid until the next call.
func (c *caller) raw(h http.Handler, body string) (int, []byte) {
	c.buf = append(c.buf[:0], body...)
	c.body = bodyReader{b: c.buf}
	c.w.reset()
	h.ServeHTTP(&c.w, newRequest(&c.body, []string{fmt.Sprintf("c%d-checker", c.idx)}))
	return c.w.status, c.w.buf.Bytes()
}

var sink *http.Request

// harnessAllocs measures the bytes and allocations the loop spends per
// op building its request, so they can be taken out of the program's
// per-op figures.
func harnessAllocs() (bytesPerOp, allocsPerOp float64) {
	const n = 10000
	body := &bodyReader{}
	id := []string{"c0-user-0"}
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		sink = newRequest(body, id)
	}
	runtime.ReadMemStats(&b)
	sink = nil
	return float64(b.TotalAlloc-a.TotalAlloc) / n, float64(b.Mallocs-a.Mallocs) / n
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
