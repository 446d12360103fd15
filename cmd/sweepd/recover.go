package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"earlyrelease/internal/search"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/sweep/durable"
)

// This file is the server half of crash recovery (the coordinator half
// is the sweep package's journal): interrupted sweeps resurface in the
// job table under their original ids with resume goroutines attached,
// and explorations reload from a small JSON index beside the journal —
// finished frontiers fsck'd from disk, unfinished ones re-run
// deterministically against the recovered warm cache (same seed, same
// space ⇒ the same candidate sequence, now mostly cache hits).

// restore re-registers a recovered job under its original "{prefix}-{n}"
// id, bumping the sequence so new submissions never collide with it.
func (st *jobStore[J]) restore(id string, j *J) error {
	n, err := strconv.Atoi(strings.TrimPrefix(id, st.prefix+"-"))
	if err != nil || n <= 0 {
		return fmt.Errorf("recovered job id %q does not match %s-<n>", id, st.prefix)
	}
	if i, found := slices.BinarySearch(st.ids, n); !found {
		st.ids = slices.Insert(st.ids, i, n)
	}
	st.jobs[id] = j
	if n > st.next {
		st.next = n
	}
	return nil
}

// recoverSweeps resurfaces the labeled jobs the coordinator replayed
// from its journal. Each comes back "running" under its original sweep
// id, progress pre-filled with the replayed completions, and a resume
// goroutine blocking on the coordinator exactly where the interrupted
// handler's runJob was.
func (s *Server) recoverSweeps() {
	for _, rj := range s.coord.Recovered() {
		var g sweep.Grid
		if err := json.Unmarshal(rj.Meta, &g); err != nil {
			log.Printf("recovered job %s: unusable grid metadata: %v", rj.Label, err)
			continue
		}
		job := &sweepJob{ID: rj.Label, State: "running", Grid: g, TraceID: rj.Trace,
			Progress: sweep.Progress{Total: rj.Total, Done: rj.Done}}
		if err := s.sweeps.restore(job.ID, job); err != nil {
			log.Printf("recovered job dropped: %v", err)
			continue
		}
		go s.resumeJob(job)
	}
}

// resumeJob is runJob for a job that outlived a coordinator restart:
// it attaches to the replayed queue state instead of submitting points
// again, so nothing already completed is re-simulated.
func (s *Server) resumeJob(job *sweepJob) {
	res, err := s.coord.ResumeRecovered(job.ID, func(p sweep.Progress) {
		s.mu.Lock()
		job.Progress = p
		s.mu.Unlock()
	})
	s.finishJob(job, res, err)
}

// --- exploration persistence ---------------------------------------------

// exploreRec is one exploration in the persisted index: the normalized
// spec and terminal state travel in the index, the frontier in its own
// per-job file (it can be large, and the index rewrites on every
// submission).
type exploreRec struct {
	ID    string      `json:"id"`
	State string      `json:"state"`
	Spec  search.Spec `json:"spec"`
	Err   string      `json:"err,omitempty"`
}

func (s *Server) exploresPath() string { return filepath.Join(s.stateDir, "explores.json") }

func (s *Server) frontierPath(id string) string {
	return filepath.Join(s.stateDir, "frontier-"+id+".json")
}

// saveExploresLocked rewrites the exploration index (callers hold
// s.mu). Persistence is best-effort here — an unwritable state dir
// must not fail a submission the coordinator already accepted.
func (s *Server) saveExploresLocked() {
	if s.stateDir == "" {
		return
	}
	recs := []exploreRec{}
	for _, j := range s.explores.all() {
		recs = append(recs, exploreRec{ID: j.ID, State: j.State, Spec: j.Spec, Err: j.Err})
	}
	if err := durable.WriteSnapshot(s.exploresPath(), recs); err != nil {
		log.Printf("persist explores index: %v", err)
	}
}

// recoverExplores reloads the exploration index. Finished jobs get
// their frontier back from disk after the load fsck; a job that was
// running at the crash — or whose frontier file did not survive — is
// re-run from its spec: exploration is deterministic in (seed, budget,
// space), so the re-run replays the same candidate sequence against
// the warm recovered cache and re-derives the same frontier.
func (s *Server) recoverExplores() error {
	if s.stateDir == "" {
		return nil
	}
	var recs []exploreRec
	ok, err := durable.ReadSnapshot(s.exploresPath(), &recs)
	if err != nil || !ok {
		return err
	}
	for _, rec := range recs {
		job := &exploreJob{ID: rec.ID, State: rec.State, Spec: rec.Spec, Err: rec.Err}
		if err := s.explores.restore(job.ID, job); err != nil {
			return err
		}
		if job.State == "done" && job.Err == "" {
			fr, err := search.LoadFrontier(s.frontierPath(job.ID))
			switch {
			case err == nil:
				job.Frontier = fr
				continue
			case errors.Is(err, os.ErrNotExist):
				log.Printf("exploration %s: frontier file missing; re-running", job.ID)
			default:
				// Corrupt or out-of-space frontier: fail the fsck loudly
				// in the log, then recompute rather than serve bad data.
				log.Printf("exploration %s: %v; re-running", job.ID, err)
			}
			job.State = "running"
			job.Err = ""
		}
		if job.State != "done" {
			job.State = "running"
			// nil admission: the crashed submission was admitted before
			// the restart, and quotas track live in-flight work only.
			go s.runExploreJob(job, job.Spec, nil)
		}
	}
	s.mu.Lock()
	s.saveExploresLocked()
	s.mu.Unlock()
	return nil
}
