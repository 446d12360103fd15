package main

import (
	"encoding/json"
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
// and explorations reload from one record each beside the journal —
// finished frontiers fsck'd, unfinished ones re-run deterministically
// against the recovered warm cache (same seed, same space ⇒ the same
// candidate sequence, now mostly cache hits).

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

// explorePath names an exploration's record: one file per job in the
// state dir, holding the job document exactly as GET /explore/{id}
// serves it. It is written when the job is submitted and again when it
// finishes (before the job is published as done), and removed when the
// job is evicted, so the state dir holds one record per retained job.
func (s *Server) explorePath(id string) string { return filepath.Join(s.stateDir, id+".json") }

// recoverExplores restores every record under its id, after removing
// the temp files of writes a crash cut short (the record each was
// replacing is intact). A finished job is served as it was once its
// frontier passes the fsck (search.CheckFrontier). A job that was
// running, or whose record fails to decode or fails the fsck, is re-run
// from its spec: exploration is deterministic in (seed, budget, space),
// so the re-run replays the same candidate sequence against the warm
// recovered cache and re-derives the same frontier. encoding/json
// fills every field it can before it reports a decode error, so a
// damaged frontier leaves the spec readable; a record that yields no
// id yields no spec either, and is refused by name.
func (s *Server) recoverExplores() error {
	if s.stateDir == "" {
		return nil
	}
	stale, _ := filepath.Glob(filepath.Join(s.stateDir, ".ex-*.json-*"))
	for _, path := range stale {
		os.Remove(path)
	}
	paths, _ := filepath.Glob(filepath.Join(s.stateDir, "ex-*.json"))
	for _, path := range paths {
		id := strings.TrimSuffix(filepath.Base(path), ".json")
		job := &exploreJob{}
		_, err := durable.ReadSnapshot(path, job)
		if job.ID != id {
			return fmt.Errorf("sweepd: exploration record %s is unreadable, so its spec is lost: %v", path, err)
		}
		if err == nil && job.State == "done" && job.Err == "" {
			err = search.CheckFrontier(job.Frontier)
		}
		if err != nil {
			// Fail the fsck loudly in the log, then recompute rather
			// than serve bad data.
			log.Printf("exploration %s: %v; re-running", id, err)
		}
		rerun := err != nil || job.State != "done"
		if rerun {
			job = &exploreJob{ID: id, State: "running", Tenant: job.Tenant, Spec: job.Spec}
		}
		if err := s.explores.restore(id, job); err != nil {
			return err
		}
		if rerun {
			// nil admission: the crashed submission was admitted before
			// the restart, and quotas track live in-flight work only.
			go s.runExploreJob(job, job.Spec, nil)
		}
	}
	return nil
}
