package main

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// histCap is the history each key starts with room for; a key keeps
// only the writes some in-flight or future read could still return.
const histCap = 8

// writeRec is one write to a key, stamped on the checker's logical
// clock when it was sent and when it was acknowledged (0 = not acked).
type writeRec struct {
	val        uint64
	start, ack uint64
}

// keyHist is the live write history of one key, in start order.
type keyHist struct {
	recs     []writeRec
	firstAck uint64 // ack stamp of the key's first acked write; 0 = none
}

// supersededAt reports whether a write acked at ack had been
// overwritten for every read starting at rs or later: some write that
// started after it was acked had itself been acked before rs. Acks of
// overlapping writes can be stamped in either order, so only a write
// that began after another's ack is known to have been applied after
// it.
func (h *keyHist) supersededAt(ack, rs uint64) bool {
	for _, r := range h.recs {
		if r.start > ack && r.ack != 0 && r.ack < rs {
			return true
		}
	}
	return false
}

// checker verifies every answer the front door gives. It knows each
// key's initial value and every write the benchmark sent, so a point
// read passes only if it returns its key's row with a value that was
// acked or in flight during the read.
type checker struct {
	w       *workload
	clock   atomic.Uint64
	mu      [64]sync.Mutex
	hist    []keyHist // index key-1
	reading [maxCallerIDs]atomic.Uint64
}

func newChecker(w *workload) *checker {
	c := &checker{w: w, hist: make([]keyHist, w.catalog)}
	backing := make([]writeRec, w.catalog*histCap)
	for i := range c.hist {
		c.hist[i].recs = backing[i*histCap : i*histCap : (i+1)*histCap]
	}
	return c
}

func (c *checker) now() uint64 { return c.clock.Add(1) }

func (c *checker) lock(key int64) *sync.Mutex { return &c.mu[key%int64(len(c.mu))] }

// beginRead registers a read by caller and returns its start stamp. The
// registration, made before the stamp and never later than it, keeps
// every write value the read may legally return in the histories until
// endRead.
func (c *checker) beginRead(caller int) uint64 {
	c.reading[caller].Store(c.clock.Load() + 1)
	return c.now()
}

func (c *checker) endRead(caller int) { c.reading[caller].Store(0) }

// oldestRead is the earliest registered in-flight read, or now if none.
func (c *checker) oldestRead() uint64 {
	oldest := c.now()
	for i := range c.reading {
		if r := c.reading[i].Load(); r != 0 && r < oldest {
			oldest = r
		}
	}
	return oldest
}

// valueID packs the (caller, seq) of a written value; 0 is the initial
// value.
func valueID(caller int, seq uint64) uint64 { return uint64(caller+1)<<48 | seq }

type writeToken struct{ start uint64 }

// beginWrite records that a write of val to key is about to be sent,
// first dropping writes no read can return any more.
func (c *checker) beginWrite(key int64, val uint64) writeToken {
	oldest := c.oldestRead()
	m := c.lock(key)
	m.Lock()
	defer m.Unlock()
	h := &c.hist[key-1]
	live := h.recs[:0]
	for _, r := range h.recs {
		if r.ack == 0 || !h.supersededAt(r.ack, oldest) {
			live = append(live, r)
		}
	}
	h.recs = live
	start := c.now()
	h.recs = append(h.recs, writeRec{val: val, start: start})
	return writeToken{start: start}
}

// ackWrite marks the write that began at t as acknowledged.
func (c *checker) ackWrite(key int64, t writeToken) {
	m := c.lock(key)
	m.Lock()
	defer m.Unlock()
	h := &c.hist[key-1]
	for i := range h.recs {
		if h.recs[i].start == t.start {
			h.recs[i].ack = c.now()
			if h.firstAck == 0 {
				h.firstAck = h.recs[i].ack
			}
			return
		}
	}
}

// readOK reports whether val is a legal answer for key from a read that
// started at rs and ended at re: the initial value until some write has
// been acked, or the value of a write that started before the read
// ended and had not been superseded when it began.
func (c *checker) readOK(key int64, val uint64, rs, re uint64) bool {
	m := c.lock(key)
	m.Lock()
	defer m.Unlock()
	h := &c.hist[key-1]
	if val == 0 {
		return h.firstAck == 0 || h.firstAck > rs
	}
	for _, r := range h.recs {
		if r.val == val && r.start < re && (r.ack == 0 || !h.supersededAt(r.ack, rs)) {
			return true
		}
	}
	return false
}

// wasWritten reports whether the run sent any write to key.
func (c *checker) wasWritten(key int64) bool { return len(c.hist[key-1].recs) > 0 }

// verify checks one front-door answer and returns whether it is correct.
// It parses by hand and allocates nothing, so checking stays out of the
// measured allocation counts.
func (c *checker) verify(o op, status int, body []byte, rs, re uint64, t writeToken) bool {
	if status != http.StatusOK || !bytes.Contains(body, delayKey) {
		return false
	}
	switch o.kind {
	case opWrite:
		i := bytes.Index(body, affectedKey)
		if i < 0 {
			return false
		}
		if n, ok := leadingUint(body[i+len(affectedKey):]); !ok || n != 1 {
			return false
		}
		c.ackWrite(o.key, t)
		return true
	case opRead:
		n, good := 0, true
		eachRow(body, func(id, val []byte) {
			n++
			k, ok := parseUint(id)
			if !ok || k != uint64(o.key) {
				good = false
				return
			}
			v, vok := c.parseValue(o.key, val)
			good = good && vok && c.readOK(o.key, v, rs, re)
		})
		return good && n == 1
	default: // opScan: exactly the ids of the range, each once
		var seen [2]uint64
		n, good := 0, true
		eachRow(body, func(id, _ []byte) {
			n++
			k, ok := parseUint(id)
			off := int64(k) - o.key
			if !ok || off < 0 || off >= scanWidth || seen[off/64]&(1<<(off%64)) != 0 {
				good = false
				return
			}
			seen[off/64] |= 1 << (off % 64)
		})
		return good && n == scanWidth
	}
}

var (
	delayKey    = []byte(`"delay_millis":`)
	affectedKey = []byte(`"affected":`)
	rowsKey     = []byte(`"rows":[`)
)

// parseUint parses a whole byte slice of decimal digits.
func parseUint(b []byte) (uint64, bool) {
	n, ok := leadingUint(b)
	return n, ok && len(b) > 0 && len(b) <= 19 && isDigits(b)
}

// leadingUint parses the decimal digits at the start of b.
func leadingUint(b []byte) (uint64, bool) {
	var n uint64
	i := 0
	for ; i < len(b) && i < 19 && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	return n, i > 0
}

func isDigits(b []byte) bool {
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// delayMillis returns the charged delay an answer reports.
func delayMillis(body []byte) (float64, bool) {
	i := bytes.Index(body, delayKey)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(delayKey):]
	j := 0
	for j < len(rest) && bytes.IndexByte([]byte("0123456789.eE+-"), rest[j]) >= 0 {
		j++
	}
	v, err := strconv.ParseFloat(string(rest[:j]), 64)
	return v, err == nil
}

// parseValue maps a returned value back to its value id: 0 for key k's
// initial value, the packed (caller, seq) for a benchmark write.
func (c *checker) parseValue(k int64, val []byte) (uint64, bool) {
	if len(val) > 0 && val[0] == 'w' {
		dash := bytes.IndexByte(val, '-')
		if dash < 0 {
			return 0, false
		}
		caller, ok1 := parseUint(val[1:dash])
		seq, ok2 := parseUint(val[dash+1:])
		if !ok1 || !ok2 {
			return 0, false
		}
		return valueID(int(caller), seq), true
	}
	// Initial value: "v<k>-" followed by pad 'x's.
	var pre [24]byte
	p := append(strconv.AppendInt(append(pre[:0], initialPrefix...), k, 10), '-')
	if !bytes.HasPrefix(val, p) || len(val) != len(p)+c.w.pad {
		return 0, false
	}
	for _, b := range val[len(p):] {
		if b != 'x' {
			return 0, false
		}
	}
	return 0, true
}

// eachRow calls fn with the two cells of every row of a /query answer
// over items (id, v). Values the benchmark writes contain no JSON
// escapes, so a cell runs to the next quote.
func eachRow(body []byte, fn func(id, val []byte)) {
	i := bytes.Index(body, rowsKey)
	if i < 0 {
		return
	}
	b := body[i+len(rowsKey):]
	for len(b) > 0 && b[0] == '[' {
		var cells [2][]byte
		b = b[1:]
		for c := 0; c < 2; c++ {
			if len(b) == 0 || b[0] != '"' {
				fn(nil, nil)
				return
			}
			end := bytes.IndexByte(b[1:], '"')
			if end < 0 {
				fn(nil, nil)
				return
			}
			cells[c] = b[1 : 1+end]
			b = b[end+2:]
			if len(b) > 0 && b[0] == ',' {
				b = b[1:]
			}
		}
		if len(b) == 0 || b[0] != ']' {
			fn(nil, nil)
			return
		}
		fn(cells[0], cells[1])
		b = b[1:]
		if len(b) > 0 && b[0] == ',' {
			b = b[1:]
		}
	}
}
