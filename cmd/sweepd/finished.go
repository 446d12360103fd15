package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"
	"sync"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/sweep"
)

// outcomeTable is the part of a finished sweep that repeats when one
// grid is submitted again: each outcome's key and cached flag, about
// 33 B per point. It never changes once built, and every retained
// sweep with the same keys and flags holds the same one (shareTable),
// so the collector frees it with the last of them: no reference count
// and no eviction hook.
type outcomeTable struct {
	// keys holds outcome i's key, Point.Key's 64 hex digits, as the 32
	// bytes they encode at [32i, 32i+32); a key that failed, "", is 32
	// zero bytes, which no digest is in practice.
	keys string
	// cached holds outcome i's cached flag in bit i%8 of byte i/8.
	cached string
}

// zeroKey is the bytes of a key that failed.
var zeroKey = string(make([]byte, sha256.Size))

// len is the number of outcomes.
func (t *outcomeTable) len() int { return len(t.keys) / sha256.Size }

// isCached reports outcome i's cached flag.
func (t *outcomeTable) isCached(i int) bool { return t.cached[i/8]&(1<<(i%8)) != 0 }

// keyText is the text of a key: Point.Key's 64 hex digits.
type keyText = [2 * sha256.Size]byte

// key writes outcome i's key into text and reports whether it has
// one; a zero key is "".
func (t *outcomeTable) key(i int, text *keyText) bool {
	k := t.keys[i*sha256.Size : (i+1)*sha256.Size]
	if k == zeroKey {
		return false
	}
	hex.Encode(text[:], []byte(k))
	return true
}

// keyStrings returns the outcomes' keys as strings: "" for a zero key.
func (t *outcomeTable) keyStrings() []string {
	keys := make([]string, t.len())
	var text keyText
	for i := range keys {
		if t.key(i, &text) {
			keys[i] = string(text[:])
		}
	}
	return keys
}

// finishedSweep is the form in which sweepd retains a finished sweep:
// its outcome table, shared with every retained sweep of the same keys
// and flags, plus its own rare per-point errors, Stats and SaveErr,
// about 90 B beside the job record. The results stay in the shared
// cache, which a GET reads by key: the index here, the values in the
// store, as in Bitcask. Each outcome's point is computed from the
// grid's expansion on read, unless the outcomes carried other points
// (see compactResults).
type finishedSweep struct {
	table   *outcomeTable
	errs    map[int]string
	points  []sweep.Point // nil: Grid.Expand()
	stats   sweep.RunStats
	saveErr string
}

// compactResults returns the retained form of res, the outcomes of a
// job over points: RunJob's, or ResumeRecovered's, which the binary
// that took the submission journaled. If their points are not points,
// because that binary's Grid.Expand() gave others (a different default
// workload list, say), the form keeps them, so the document never
// changes. The table is the job's own until publishJob shares it.
func compactResults(res *sweep.Results, points []sweep.Point) *finishedSweep {
	if res == nil {
		return nil
	}
	n := len(res.Outcomes)
	f := &finishedSweep{stats: res.Stats, saveErr: res.SaveErr}
	var keys strings.Builder
	keys.Grow(n * sha256.Size)
	cached := make([]byte, (n+7)/8)
	same := len(points) == n
	for i, o := range res.Outcomes {
		// Every key comes from sweep.Keys, through RunJob or the
		// journal, so it decodes; "" leaves the zero bytes.
		var key [sha256.Size]byte
		hex.Decode(key[:], []byte(o.Key))
		keys.Write(key[:])
		if o.Cached {
			cached[i/8] |= 1 << (i % 8)
		}
		if o.Err != "" {
			if f.errs == nil {
				f.errs = make(map[int]string)
			}
			f.errs[i] = o.Err
		}
		same = same && o.Point == points[i]
	}
	f.table = &outcomeTable{keys: keys.String(), cached: string(cached)}
	if !same {
		f.points = make([]sweep.Point, n)
		for i, o := range res.Outcomes {
			f.points[i] = o.Point
		}
	}
	return f
}

// shareTable returns the outcome table of a retained finished sweep
// equal to t, or t if no retained sweep holds one, so the sweeps of a
// grid submitted again while warm share one table. It compares t with
// every retained sweep's table, which costs a length comparison, or a
// key's first bytes, unless the keys are equal. The caller holds s.mu.
func (s *Server) shareTable(t *outcomeTable) *outcomeTable {
	for _, job := range s.sweeps.jobs {
		if f := job.finished; f != nil && *f.table == *t {
			return f.table
		}
	}
	return t
}

// distinctTables returns the outcome tables of the finished sweeps
// among jobs, each table once however many sweeps share it. The caller
// holds s.mu; the tables never change, so they can be read after it is
// released.
func distinctTables(jobs []*sweepJob) []*outcomeTable {
	seen := make(map[*outcomeTable]bool)
	var tables []*outcomeTable
	for _, job := range jobs {
		if f := job.finished; f != nil && !seen[f.table] {
			seen[f.table] = true
			tables = append(tables, f.table)
		}
	}
	return tables
}

// streamFlushBytes is how much of a finished document writeFinished
// gathers before handing it to the connection.
const streamFlushBytes = 32 << 10

// streamBuf is writeFinished's scratch between reads: a buffer with
// room for a flush's worth plus the outcome that crosses it, an
// encoder writing into it, and the point being encoded.
type streamBuf struct {
	bytes.Buffer
	enc *json.Encoder
	pt  sweep.Point
}

var streamBufs = sync.Pool{New: func() any {
	b := new(streamBuf)
	b.Grow(streamFlushBytes + 8<<10)
	b.enc = json.NewEncoder(&b.Buffer)
	return b
}}

// writeFinished serves a finished sweep's document: the bytes writeJSON
// gives for job with f's outcomes attached as its Results, indentation
// included, written one outcome at a time. It first reads each result
// through cache by key, counting no lookup; an outcome with an error
// or no key has none. A key the cache no longer holds (its store
// record was unreadable, say) is a 500 naming the sweep and the key,
// sent before any byte of the document. Each outcome is laid out by
// hand into one reused buffer, its point computed from the job's grid
// and its key written as text, with the encoder doing the point, the
// error and the result, so a read costs one outcome's worth of memory,
// not the document's. The job's fields come from encoding it without
// Results and Err, which are its last two fields and are omitted when
// empty; the results object and the error are laid out here by hand,
// as the encoder would. f is immutable and job a copy, so this runs
// off the lock.
func (f *finishedSweep) writeFinished(w http.ResponseWriter, cache *sweep.Cache, job sweepJob) {
	var key keyText
	t := f.table
	results := make([]*pipeline.Result, t.len())
	for i := range results {
		if t.key(i, &key) && f.errs[i] == "" {
			var ok bool
			if results[i], ok = cache.PeekText(key[:]); !ok {
				writeError(w, http.StatusInternalServerError, "sweep %s: result %s is not in the cache", job.ID, key[:])
				return
			}
		}
	}
	var grid sweep.Expansion
	if f.points == nil {
		grid = job.Grid.Expansion()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	var err error
	sb := streamBufs.Get().(*streamBuf)
	defer streamBufs.Put(sb)
	buf, enc, pt := &sb.Buffer, sb.enc, &sb.pt
	buf.Reset()
	// encode appends v's indented encoding, less Encode's newline, as
	// a value whose enclosing lines are indented by prefix; flush hands
	// the buffer to the connection. The first failure of either sticks
	// and ends the stream.
	encode := func(prefix string, v any) {
		if err == nil {
			enc.SetIndent(prefix, "  ")
			if err = enc.Encode(v); err == nil {
				buf.Truncate(buf.Len() - 1)
			}
		}
	}
	flush := func() {
		if err == nil {
			_, err = w.Write(buf.Bytes())
		}
		buf.Reset()
	}
	jobErr := job.Err
	job.Err = ""
	encode("", job)
	if err != nil {
		return
	}
	buf.Truncate(buf.Len() - len("\n}"))
	buf.WriteString(",\n  \"results\": {\n    \"outcomes\": [")

	// An outcome is a sweep.Outcome at the outcomes' indentation: its
	// fields in order, each on a line of its own, the empty ones but
	// the key omitted.
	const field, fieldIndent = ",\n        ", "        "
	for i := range results {
		if i > 0 {
			buf.WriteByte(',')
		}
		if f.points != nil {
			*pt = f.points[i]
		} else {
			grid.At(i, pt)
		}
		buf.WriteString("\n      {\n        \"point\": ")
		encode(fieldIndent, pt)
		buf.WriteString(field + `"key": "`)
		if t.key(i, &key) {
			buf.Write(key[:])
		}
		buf.WriteByte('"')
		if t.isCached(i) {
			buf.WriteString(field + `"cached": true`)
		}
		if e := f.errs[i]; e != "" {
			buf.WriteString(field + `"err": `)
			encode(fieldIndent, e)
		}
		if results[i] != nil {
			buf.WriteString(field + `"result": `)
			encode(fieldIndent, results[i])
		}
		buf.WriteString("\n      }")
		if buf.Len() >= streamFlushBytes {
			flush()
		}
		if err != nil {
			return
		}
	}
	if len(results) > 0 {
		buf.WriteString("\n    ")
	}
	buf.WriteString("],\n    \"stats\": ")
	encode("    ", f.stats)
	if f.saveErr != "" {
		buf.WriteString(",\n    \"save_err\": ")
		encode("    ", f.saveErr)
	}
	buf.WriteString("\n  }")
	if jobErr != "" {
		buf.WriteString(",\n  \"err\": ")
		encode("  ", jobErr)
	}
	buf.WriteString("\n}\n")
	flush()
}
