package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"slices"
	"sync"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/sweep"
)

// finishedSweep is the form in which sweepd retains a finished sweep:
// per outcome, its key in binary and its cached flag, plus the rare
// per-point errors, Stats and SaveErr, about 33 B per point. The
// results stay in the shared cache, which a GET reads by key: the
// index here, the values in the store, as in Bitcask. Each outcome's
// point is rebuilt from Grid.Expand() on read, unless the outcomes
// carried other points (see compactResults).
type finishedSweep struct {
	// keys holds each outcome's key, Point.Key's 64 hex digits, as the
	// 32 bytes they encode; a key that failed, "", is 32 zero bytes,
	// which no digest is in practice.
	keys    [][sha256.Size]byte
	cached  []bool
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
// changes.
func compactResults(res *sweep.Results, points []sweep.Point) *finishedSweep {
	if res == nil {
		return nil
	}
	n := len(res.Outcomes)
	f := &finishedSweep{
		keys:    make([][sha256.Size]byte, n),
		cached:  make([]bool, n),
		points:  make([]sweep.Point, n),
		stats:   res.Stats,
		saveErr: res.SaveErr,
	}
	for i, o := range res.Outcomes {
		// Every key comes from sweep.Keys, through RunJob or the
		// journal, so it decodes; "" leaves the zero bytes.
		hex.Decode(f.keys[i][:], []byte(o.Key))
		f.cached[i], f.points[i] = o.Cached, o.Point
		if o.Err != "" {
			if f.errs == nil {
				f.errs = make(map[int]string)
			}
			f.errs[i] = o.Err
		}
	}
	if slices.Equal(f.points, points) {
		f.points = nil
	}
	return f
}

// keyText returns the outcomes' keys as text: "" for a zero key.
func (f *finishedSweep) keyText() []string {
	keys := make([]string, len(f.keys))
	for i, key := range f.keys {
		if key != ([sha256.Size]byte{}) {
			keys[i] = hex.EncodeToString(key[:])
		}
	}
	return keys
}

// streamFlushBytes is how much of a finished document writeFinished
// gathers before handing it to the connection.
const streamFlushBytes = 32 << 10

// streamBufs holds writeFinished's buffers between reads, each with
// room for a flush's worth plus the outcome that crosses it.
var streamBufs = sync.Pool{New: func() any {
	return bytes.NewBuffer(make([]byte, 0, streamFlushBytes+8<<10))
}}

// writeFinished serves a finished sweep's document: the bytes writeJSON
// gives for job with f's outcomes attached as its Results, indentation
// included, written one outcome at a time. It first reads each result
// through cache by key, counting no lookup; an outcome with an error
// or no key has none. A key the cache no longer holds (its store
// record was unreadable, say) is a 500 naming the sweep and the key,
// sent before any byte of the document. Each outcome is rebuilt in one
// reused Outcome, its point from the job's grid, and encoded into one
// reused buffer, so a read costs one outcome's worth of memory, not
// the document's. The job's fields come from encoding it without
// Results and Err, which are its last two fields and are omitted when
// empty; the results object and the error are laid out here by hand,
// as the encoder would. f is immutable and job a copy, so this runs
// off the lock.
func (f *finishedSweep) writeFinished(w http.ResponseWriter, cache *sweep.Cache, job sweepJob) {
	keys := f.keyText()
	results := make([]*pipeline.Result, len(keys))
	for i, key := range keys {
		if key != "" && f.errs[i] == "" {
			var ok bool
			if results[i], ok = cache.Peek(key); !ok {
				writeError(w, http.StatusInternalServerError, "sweep %s: result %s is not in the cache", job.ID, key)
				return
			}
		}
	}
	points := f.points
	if points == nil {
		points = job.Grid.Expand()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	var err error
	buf := streamBufs.Get().(*bytes.Buffer)
	defer streamBufs.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
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

	o := new(sweep.Outcome)
	for i, pt := range points {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString("\n      ")
		*o = sweep.Outcome{Point: pt, Key: keys[i], Cached: f.cached[i], Err: f.errs[i], Result: results[i]}
		encode("      ", o)
		if buf.Len() >= streamFlushBytes {
			flush()
		}
		if err != nil {
			return
		}
	}
	if len(points) > 0 {
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
