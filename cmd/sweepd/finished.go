package main

import (
	"bytes"
	"encoding/json"
	"net/http"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/sweep"
)

// finishedSweep is the form in which sweepd retains a finished sweep's
// results: one result pointer and one cached flag per point, aligned
// with Grid.Expand(), plus the per-point errors, which are rare. The
// results are the ones the shared cache already holds, so a retained
// job costs about 9 B per point. An Outcome's Point and Key are pure
// functions of the grid and are rebuilt on read rather than stored; a
// full outcome list would cost about 264 B per point, or 50 KB for
// each retained 192-point sweep.
type finishedSweep struct {
	results []*pipeline.Result
	cached  []bool
	errs    map[int]string
	stats   sweep.RunStats
	saveErr string
}

// gridOutcomeKeys expands the grid and keys its points as RunJob does:
// "" where Key fails.
func gridOutcomeKeys(g sweep.Grid) ([]sweep.Point, []string) {
	points := g.Expand()
	keys, _ := sweep.Keys(points)
	return points, keys
}

// compactResults returns the retained form of the results RunJob gave
// for a grid's expansion. RunJob builds outcome i from point i and the
// key it computed for it, so there is nothing to check: the grid is
// not expanded or keyed again.
func compactResults(res *sweep.Results) *finishedSweep {
	if res == nil {
		return nil
	}
	f := &finishedSweep{
		results: make([]*pipeline.Result, len(res.Outcomes)),
		cached:  make([]bool, len(res.Outcomes)),
		stats:   res.Stats,
		saveErr: res.SaveErr,
	}
	for i, o := range res.Outcomes {
		f.results[i], f.cached[i] = o.Result, o.Cached
		if o.Err != "" {
			if f.errs == nil {
				f.errs = make(map[int]string)
			}
			f.errs[i] = o.Err
		}
	}
	return f
}

// compactChecked is compactResults for outcomes that did not come from
// a RunJob over g.Expand() — a resumed job's come from the journal. It
// returns nil when they do not match the grid's expansion point for
// point and key for key: a job journaled by an older binary could
// differ, and it keeps its full Results, so the document it serves
// never changes.
func compactChecked(g sweep.Grid, res *sweep.Results) *finishedSweep {
	if res == nil {
		return nil
	}
	points, keys := gridOutcomeKeys(g)
	if len(points) != len(res.Outcomes) {
		return nil
	}
	for i, o := range res.Outcomes {
		if o == nil || o.Point != points[i] || o.Key != keys[i] {
			return nil
		}
	}
	return compactResults(res)
}

// streamFlushBytes is how much of a finished document writeFinished
// gathers before handing it to the connection.
const streamFlushBytes = 32 << 10

// writeFinished serves a finished sweep's document: the bytes writeJSON
// gives for job with f's outcomes attached as its Results, indentation
// included, written one outcome at a time. points and keys are the
// job's grid expanded and keyed (gridOutcomeKeys). Each outcome is
// rebuilt from f in one reused Outcome and encoded into one reused
// buffer, so a read costs one outcome's worth of memory, not the
// document's. The job's fields come from encoding it without Results
// and Err, which are its last two fields and are omitted when empty;
// the results object and the error are laid out here by hand, as the
// encoder would. f is immutable and job a copy, so this runs off the
// lock.
func (f *finishedSweep) writeFinished(w http.ResponseWriter, job sweepJob, points []sweep.Point, keys []string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Room for a flush's worth plus the outcome that crosses it.
	buf := bytes.NewBuffer(make([]byte, 0, streamFlushBytes+8<<10))
	enc := json.NewEncoder(buf)
	// encode appends v's indented encoding, less Encode's newline, as
	// a value whose enclosing lines are indented by prefix; flush hands
	// the buffer to the connection. The first failure of either sticks
	// and ends the stream.
	var err error
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
	job.Results, job.Err = nil, ""
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
		*o = sweep.Outcome{Point: pt, Key: keys[i], Cached: f.cached[i], Err: f.errs[i], Result: f.results[i]}
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
