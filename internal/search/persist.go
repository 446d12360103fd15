package search

import (
	"fmt"

	"earlyrelease/internal/sweep"
)

// This file is the frontier's fsck: a frontier read back from outside
// the process (sweepd keeps each exploration as one JSON record in its
// state dir) is only served once CheckFrontier passes — the spec must
// normalize, every candidate must re-encode into the space, and the set
// must be mutually non-dominated — so a corrupt or hand-edited record
// fails loudly instead of serving impossible state. RebuildArchive
// reconstructs the in-memory archive behind a frontier, including each
// eval's genome, which never leaves the process in the JSON.

// encode maps a candidate back to its genome — the inverse of decode,
// used when rebuilding an archive from persisted evals. The space must
// be normalized. A candidate that names a policy, size, or axis value
// outside the space (or an axis the space does not have) is an error.
func (s *Space) encode(c Candidate) (genome, error) {
	idxOf := func(name string, vals []int, v int) (int, error) {
		for i, x := range vals {
			if x == v {
				return i, nil
			}
		}
		return 0, fmt.Errorf("search: %s value %d is not in the space", name, v)
	}
	g := make(genome, 0, 3+len(s.Axes))
	pol := -1
	for i, p := range s.Policies {
		if p == c.Policy {
			pol = i
			break
		}
	}
	if pol < 0 {
		return nil, fmt.Errorf("search: policy %q is not in the space", c.Policy)
	}
	g = append(g, pol)
	ir, err := idxOf("int_regs", s.IntRegs, c.IntRegs)
	if err != nil {
		return nil, err
	}
	g = append(g, ir)
	if len(s.FPRegs) > 0 {
		fr, err := idxOf("fp_regs", s.FPRegs, c.FPRegs)
		if err != nil {
			return nil, err
		}
		g = append(g, fr)
	} else if c.FPRegs != c.IntRegs {
		return nil, fmt.Errorf("search: fp_regs %d differs from int_regs %d in a tied space",
			c.FPRegs, c.IntRegs)
	}
	known := map[string]bool{}
	for _, ar := range s.Axes {
		known[ar.Name] = true
		ax, err := sweep.AxisByName(ar.Name)
		if err != nil {
			return nil, err
		}
		v, ok := c.Machine[ar.Name]
		if ok {
			v = ax.Canon(v) // tolerate the sweep grid's 0-means-baseline
		} else {
			v = ax.Baseline
		}
		ai, err := idxOf(ar.Name, ar.Values, v)
		if err != nil {
			return nil, err
		}
		g = append(g, ai)
	}
	for name := range c.Machine {
		if !known[name] {
			return nil, fmt.Errorf("search: machine axis %q is not in the space", name)
		}
	}
	return g, nil
}

// RebuildArchive reconstructs the archive behind a frontier, re-deriving
// each eval's genome from its candidate against the frontier's (already
// normalized) space. The evals are rewired in place — after a
// successful rebuild, fr.Frontier's entries carry live genomes and the
// returned archive can seed further exploration or dominance queries.
func RebuildArchive(fr *Frontier) (*Archive, error) {
	if fr == nil || fr.Spec.Space == nil {
		return nil, fmt.Errorf("search: frontier has no space")
	}
	arch := NewArchive()
	for i, e := range fr.Frontier {
		if e == nil {
			return nil, fmt.Errorf("search: frontier[%d] is null", i)
		}
		if e.Err != "" {
			return nil, fmt.Errorf("search: frontier[%d] %s carries an error: %s",
				i, e.Candidate, e.Err)
		}
		g, err := fr.Spec.Space.encode(e.Candidate)
		if err != nil {
			return nil, fmt.Errorf("search: frontier[%d] %s: %w", i, e.Candidate, err)
		}
		e.g = g
		arch.Add(e)
	}
	if arch.Len() != len(fr.Frontier) {
		return nil, fmt.Errorf("search: frontier repeats a candidate (%d distinct of %d)",
			arch.Len(), len(fr.Frontier))
	}
	return arch, nil
}

// CheckFrontier fscks a frontier loaded from outside the process: the
// spec must normalize, every candidate must re-encode into the space
// (rewiring genomes as a side effect, like RebuildArchive), and the
// frontier must be mutually non-dominated.
func CheckFrontier(fr *Frontier) error {
	if fr == nil {
		return fmt.Errorf("search: nil frontier")
	}
	if err := fr.Spec.Normalize(); err != nil {
		return err
	}
	if _, err := RebuildArchive(fr); err != nil {
		return err
	}
	if !verifyNonDominated(fr.Frontier) {
		return fmt.Errorf("search: frontier is not mutually non-dominated")
	}
	return nil
}
