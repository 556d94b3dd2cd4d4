package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/zipf"
)

// role is what one closed-loop caller does.
type role int

const (
	// roleReader issues Zipf(α=1) point reads from rotating principals.
	roleReader role = iota
	// roleExtractor sweeps the key space in scanWidth-tuple range scans,
	// rotating through extractorIDs identities.
	roleExtractor
	// roleMixed issues Zipf point reads and single-key UPDATEs, half each.
	roleMixed
	// roleWriter issues single-key UPDATEs on Zipf keys; only probes use
	// it.
	roleWriter
)

const (
	permSeed      = 2004
	scanWidth     = 100
	legitIDs      = 1000
	extractorIDs  = 8
	callers       = 2 // the host's core count; see README.md
	initialPrefix = "v"
)

// Caller indexes. Every principal is named after its caller ("c<i>-…"),
// so the checker and the tracer tell callers apart by index.
const (
	probeCaller   = callers               // callers of the probe loop
	legitReplay   = probeCaller + callers // pricing replay, legitimate reads
	extractReplay = legitReplay + 1       // pricing replay, extractor
	checkCaller   = extractReplay + 1     // final read-back
	ladderCaller  = checkCaller + 1       // the ladder's callers, one per role
	maxCallerIDs  = ladderCaller + callers
)

// workload is one traffic mix against one catalog.
type workload struct {
	name     string
	catalog  int  // tuples
	pad      int  // bytes of padding in each initial value
	loopback bool // shards behind loopback listeners instead of in-process
	roles    [callers]role
}

var workloads = []*workload{
	// 40k short tuples: ~107 pages per shard against a 256-page pool.
	{name: "zipf-read", catalog: 40000, pad: 8, roles: [callers]role{roleReader, roleReader}},
	// 64k tuples with 256-byte values: ~2.3k pages per shard, ≈9× the pool.
	{name: "extract-scan", catalog: 64000, pad: 256, loopback: true, roles: [callers]role{roleExtractor, roleReader}},
	{name: "write-mix", catalog: 40000, pad: 8, roles: [callers]role{roleMixed, roleMixed}},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// issues reports whether any caller of w issues op kind k in the closed
// loop.
func (w *workload) issues(k opKind) bool {
	for _, r := range w.roles {
		switch {
		case r == roleReader && k == opRead,
			r == roleExtractor && k == opScan,
			r == roleMixed && (k == opRead || k == opWrite),
			r == roleWriter && k == opWrite:
			return true
		}
	}
	return false
}

// initialValue is key k's value as loaded.
func (w *workload) initialValue(k int64) string {
	return initialPrefix + strconv.FormatInt(k, 10) + "-" + strings.Repeat("x", w.pad)
}

type opKind uint8

const (
	opRead opKind = iota
	opScan
	opWrite
	numKinds
)

var kindNames = [numKinds]string{"read", "scan", "write"}

// op is one front-door request. For opScan, key is the first id of the
// range; for opWrite, seq numbers the value the write installs.
type op struct {
	kind      opKind
	key       int64
	principal []string // X-Identity header value, shared and never mutated
	seq       uint64
}

// keySpace maps Zipf ranks to keys through a fixed permutation, so hot
// keys spread over every partition instead of clustering at low ids.
// Which keys are hot, and so which shard holds each hot key, is part of
// the workload rather than of the seed: per-shard prices depend on the
// hottest key a shard holds, and a seed-drawn placement would swing
// them from run to run. The seed drives the request sequence.
type keySpace struct {
	dist *zipf.Dist
	perm []int64 // rank-1 → key
}

func newKeySpace(catalog int) (*keySpace, error) {
	d, err := zipf.New(catalog, 1)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(permSeed))
	perm := make([]int64, catalog)
	for i := range perm {
		perm[i] = int64(i + 1)
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return &keySpace{dist: d, perm: perm}, nil
}

// stream generates one caller's op sequence: the same (seed, caller)
// always yields the same sequence.
type stream struct {
	w        *workload
	role     role
	caller   int
	rng      *rand.Rand
	zs       *zipf.Sampler
	ks       *keySpace
	next     int64 // extractor cursor
	scans    uint64
	legit    [][]string
	extract  [][]string
	writeSeq uint64
}

func newStream(w *workload, ks *keySpace, seed int64, caller int, r role) *stream {
	s := &stream{
		w: w, role: r, caller: caller, ks: ks,
		rng: rand.New(rand.NewSource(seed*7919 + int64(caller))),
		zs:  zipf.NewSampler(ks.dist, seed*104729+int64(caller)),
	}
	for i := 0; i < legitIDs; i++ {
		s.legit = append(s.legit, []string{fmt.Sprintf("c%d-user-%d", caller, i)})
	}
	for i := 0; i < extractorIDs; i++ {
		s.extract = append(s.extract, []string{fmt.Sprintf("c%d-bot-%d", caller, i)})
	}
	s.next = 1 + scanWidth*s.rng.Int63n(int64(w.catalog/scanWidth))
	return s
}

func (s *stream) zipfKey() int64 { return s.ks.perm[s.zs.Next()-1] }

// nextOp returns the caller's next op.
func (s *stream) nextOp() op {
	switch s.role {
	case roleExtractor:
		return s.scanOp()
	case roleWriter:
		return s.writeOp()
	case roleMixed:
		if s.rng.Intn(2) == 0 {
			return s.writeOp()
		}
	}
	return op{kind: opRead, key: s.zipfKey(), principal: s.legit[s.rng.Intn(legitIDs)]}
}

// scanOp returns the next range of the sweep, wrapping at the catalog
// end.
func (s *stream) scanOp() op {
	s.scans++
	o := op{kind: opScan, key: s.next, principal: s.extract[s.scans%extractorIDs]}
	s.next += scanWidth
	if s.next > int64(s.w.catalog) {
		s.next = 1
	}
	return o
}

func (s *stream) writeOp() op {
	s.writeSeq++
	return op{kind: opWrite, key: s.zipfKey(), principal: s.legit[s.rng.Intn(legitIDs)], seq: s.writeSeq}
}

// appendSQL renders o as a /query JSON body into buf. The catalog's
// keys are positive, so a scan never needs clamping below 1; ranges
// past the catalog end are never generated (the sweep wraps first).
func appendSQL(buf []byte, o op, caller int) []byte {
	buf = append(buf, `{"sql":"`...)
	switch o.kind {
	case opRead:
		buf = append(buf, "SELECT * FROM items WHERE id = "...)
		buf = strconv.AppendInt(buf, o.key, 10)
	case opScan:
		buf = append(buf, "SELECT * FROM items WHERE id BETWEEN "...)
		buf = strconv.AppendInt(buf, o.key, 10)
		buf = append(buf, " AND "...)
		buf = strconv.AppendInt(buf, o.key+scanWidth-1, 10)
	case opWrite: // the value is unique to its (caller, seq)
		buf = append(buf, "UPDATE items SET v = '"...)
		buf = append(buf, 'w')
		buf = strconv.AppendInt(buf, int64(caller), 10)
		buf = append(buf, '-')
		buf = strconv.AppendUint(buf, o.seq, 10)
		buf = append(buf, "' WHERE id = "...)
		buf = strconv.AppendInt(buf, o.key, 10)
	}
	return append(buf, `"}`...)
}
