// Package earlyrelease is the public facade of the early-register-release
// simulation suite: a reproduction of T. Monreal, V. Viñals, A. González
// and M. Valero, "Hardware Schemes for Early Register Release" (ICPP
// 2002).
//
// The package wraps a complete trace-driven, cycle-level out-of-order
// processor simulator (internal/pipeline) with merged physical register
// files whose release policy is pluggable:
//
//   - PolicyConventional — free a register when its redefinition commits;
//   - PolicyBasic        — the paper's Last-Uses Table mechanism (§3);
//   - PolicyExtended     — the Release Queue mechanism handling
//     speculative redefinitions (§4).
//
// Quick start:
//
//	rep, err := earlyrelease.Run("tomcatv", earlyrelease.Config{
//	    Policy:  earlyrelease.PolicyExtended,
//	    IntRegs: 48, FPRegs: 48,
//	})
//	fmt.Printf("IPC %.2f\n", rep.IPC)
//
// Custom programs can be written in the suite's assembly dialect and
// simulated with RunSource, or generated with the builder in
// internal/program. The experiment drivers that regenerate every table
// and figure of the paper live in internal/experiments and are exposed
// through cmd/figures.
package earlyrelease

import (
	"fmt"

	"earlyrelease/internal/asm"
	"earlyrelease/internal/emu"
	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/release"
	"earlyrelease/internal/trace"
	"earlyrelease/internal/workloads"
)

// Policy names accepted in Config.
const (
	PolicyConventional = "conv"
	PolicyBasic        = "basic"
	PolicyExtended     = "extended"
)

// Config selects the simulated machine configuration. The zero value is
// completed with the paper's defaults (Table 2, extended policy, 48+48
// registers, 300k-instruction traces).
type Config struct {
	Policy  string // "conv", "basic" or "extended"
	IntRegs int    // physical integer registers (>= 32)
	FPRegs  int    // physical FP registers (>= 32)
	Scale   int    // approximate dynamic instructions to simulate
	Check   bool   // enable release-safety invariant checking
	NoReuse bool   // disable register reuse on committed redefinitions (ablation)
	Eager   bool   // Farkas/Moudgill-style eager release (ablation)
}

func (c Config) fill() Config {
	if c.Policy == "" {
		c.Policy = PolicyExtended
	}
	if c.IntRegs == 0 {
		c.IntRegs = 48
	}
	if c.FPRegs == 0 {
		c.FPRegs = 48
	}
	if c.Scale == 0 {
		c.Scale = 300_000
	}
	return c
}

// RegState is the Fig 2 breakdown of allocated registers averaged over
// the run: Empty (allocated, not yet written), Ready (written, last use
// not committed), Idle (waiting for release).
type RegState struct {
	Empty, Ready, Idle float64
}

// Report summarizes one simulation.
type Report struct {
	Workload  string
	Policy    string
	Cycles    int64
	Committed uint64
	IPC       float64

	BranchAccuracy float64
	Mispredicts    uint64
	WrongPathUops  uint64

	IntRegs RegState
	FPRegs  RegState

	// Release activity
	EarlyReleases        uint64 // at LU commit or branch confirmation
	ConventionalReleases uint64
	Reuses               uint64

	// Stall cycles at the rename stage
	RegisterStalls int64
	WindowStalls   int64
}

func toReport(res *pipeline.Result) *Report {
	return &Report{
		Workload:       res.Name,
		Policy:         res.Policy,
		Cycles:         res.Cycles,
		Committed:      res.Committed,
		IPC:            res.IPC,
		BranchAccuracy: res.BranchAccuracy,
		Mispredicts:    res.Mispredicts,
		WrongPathUops:  res.WrongPathUops,
		IntRegs:        RegState{res.IntBreakdown.Empty, res.IntBreakdown.Ready, res.IntBreakdown.Idle},
		FPRegs:         RegState{res.FPBreakdown.Empty, res.FPBreakdown.Ready, res.FPBreakdown.Idle},
		EarlyReleases: res.Release.Frees[release.FreeEarlyCommit] +
			res.Release.Frees[release.FreeEarlyConfirm] +
			res.Release.Frees[release.FreeImmediate] +
			res.Release.Frees[release.FreeEager],
		ConventionalReleases: res.Release.Frees[release.FreeConventional],
		Reuses:               res.Release.ReuseHits,
		RegisterStalls:       res.Stalls.NoPhysReg,
		WindowStalls:         res.Stalls.ROSFull,
	}
}

// WorkloadInfo describes one built-in benchmark.
type WorkloadInfo struct {
	Name        string
	Class       string // "int", "fp" or "mixed"
	Description string
}

// Workloads lists the built-in benchmark corpus: the ten SPEC95-like
// paper kernels plus the corpus v2 stress kernels.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, w := range workloads.All() {
		out = append(out, WorkloadInfo{Name: w.Name, Class: w.Class.String(), Description: w.Description})
	}
	return out
}

func buildConfig(c Config) (pipeline.Config, error) {
	kind, err := release.ParseKind(c.Policy)
	if err != nil {
		return pipeline.Config{}, err
	}
	cfg := pipeline.DefaultConfig(kind, c.IntRegs, c.FPRegs)
	cfg.Check = c.Check
	cfg.TrackRegStates = true
	cfg.Policy.Reuse = !c.NoReuse
	cfg.Policy.Eager = c.Eager
	return cfg, nil
}

// simulate runs one already-built trace on a core configured from c,
// recycling core via Reset when one is passed in. It is the shared
// back half of Run, RunSource and Compare.
func simulate(core *pipeline.Core, tr *trace.Trace, c Config) (*Report, *pipeline.Core, error) {
	cfg, err := buildConfig(c)
	if err != nil {
		return nil, core, err
	}
	if core == nil {
		core, err = pipeline.New(cfg, tr)
	} else {
		err = core.Reset(cfg, tr)
	}
	if err != nil {
		return nil, core, err
	}
	res, err := core.Run()
	if err != nil {
		return nil, core, err
	}
	return toReport(res), core, nil
}

// Run simulates one built-in workload under the given configuration.
func Run(workload string, c Config) (*Report, error) {
	c = c.fill()
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	tr, err := w.Trace(c.Scale)
	if err != nil {
		return nil, err
	}
	rep, _, err := simulate(nil, tr, c)
	return rep, err
}

// RunSource assembles a program written in the suite's assembly dialect
// (see internal/asm), executes it functionally, and simulates the
// resulting trace. The program must terminate with HALT within
// c.Scale*8 dynamic instructions.
func RunSource(name, source string, c Config) (*Report, error) {
	c = c.fill()
	p, err := asm.Assemble(name, source)
	if err != nil {
		return nil, err
	}
	tr, err := emu.New(p).Run(uint64(c.Scale) * 8)
	if err != nil {
		return nil, fmt.Errorf("earlyrelease: functional run: %w", err)
	}
	rep, _, err := simulate(nil, tr, c)
	return rep, err
}

// Compare runs a workload under all three policies with the same
// register file size and returns the reports keyed by policy name. The
// workload trace is built once and one core is recycled across the
// three simulations (Reset guarantees results identical to fresh
// cores), so a comparison costs three timed runs, not three full
// trace + construction cycles.
func Compare(workload string, c Config) (map[string]*Report, error) {
	c = c.fill()
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	tr, err := w.Trace(c.Scale)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Report, 3)
	var core *pipeline.Core
	for _, p := range []string{PolicyConventional, PolicyBasic, PolicyExtended} {
		c.Policy = p
		var rep *Report
		rep, core, err = simulate(core, tr, c)
		if err != nil {
			return nil, err
		}
		out[p] = rep
	}
	return out, nil
}

// Speedup returns the relative IPC improvement of rep over base.
func Speedup(base, rep *Report) float64 {
	if base.IPC == 0 {
		return 0
	}
	return rep.IPC/base.IPC - 1
}
