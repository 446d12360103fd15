package experiments

import (
	"fmt"
	"strings"

	"earlyrelease/internal/search"
	"earlyrelease/internal/stats"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/workloads"
)

// The frontier driver re-derives the paper's §4.4 energy-balance
// argument — early release lets a smaller, cooler register file match
// a larger conventional one — as a searched Pareto trade-off instead
// of two hand-picked configurations. One exploration per policy climbs
// the (hmean IPC, RF energy, RF access time) frontier over the
// register-file sizing space (int and FP free, machine axes at
// Table 2); the equal-IPC pairs across the two frontiers are exactly
// the paper's comparison, discovered rather than assumed.

// FrontierResult holds both searched frontiers and their equal-IPC
// energy balance.
type FrontierResult struct {
	Conv  *search.Frontier
	Ext   *search.Frontier
	Pairs []BalanceRow
}

// BalanceRow pairs one conventional frontier point with the
// cheapest-energy extended point matching its IPC.
type BalanceRow struct {
	Conv         search.Candidate
	Ext          search.Candidate
	ConvIPC      float64
	ExtIPC       float64
	ConvEnergyPJ float64
	ExtEnergyPJ  float64
	SavedPct     float64 // energy saving of ext over conv (+ = cheaper)
}

// frontierSpace is the §4.4 sizing space for one policy: both file
// sizes free over the Figure 11 range, machine axes pinned to Table 2.
func frontierSpace(policy string) *search.Space {
	sp := &search.Space{
		Policies: []string{policy},
		IntRegs:  append([]int(nil), search.DefaultSizes...),
		FPRegs:   append([]int(nil), search.DefaultSizes...),
	}
	for _, ax := range sweep.MachineAxes() {
		sp.Axes = append(sp.Axes, search.AxisRange{Name: ax.Name, Values: []int{ax.Baseline}})
	}
	return sp
}

// Frontier searches the conv and extended sizing frontiers with the
// given per-policy budget and seed. Empty ws selects the paper suite.
// Evaluations run through the options' cache (or remote coordinator),
// so the driver shares points with Fig 11's grid where the spaces
// overlap and warm reruns simulate nothing.
func Frontier(opt Options, budget int, seed int64, ws []string) (*FrontierResult, error) {
	if budget <= 0 {
		budget = 60
	}
	if len(ws) == 0 {
		for _, w := range workloads.Paper() {
			ws = append(ws, w.Name)
		}
	}
	out := &FrontierResult{}
	for _, job := range []struct {
		policy string
		dst    **search.Frontier
	}{{"conv", &out.Conv}, {"extended", &out.Ext}} {
		spec := search.Spec{
			Strategy:  "hillclimb",
			Budget:    budget,
			Seed:      seed,
			Scale:     opt.scale(),
			Check:     opt.Check,
			Workloads: ws,
			Space:     frontierSpace(job.policy),
		}
		var fr *search.Frontier
		var err error
		if opt.Remote != "" {
			fr, err = search.RunRemote(opt.context(), sweep.NewClient(opt.Remote), spec, nil)
		} else {
			cache := opt.Cache
			if cache == nil {
				cache = sharedCache
			}
			ex := &search.Explorer{Eval: &sweep.Engine{Parallel: opt.Parallel, Cache: cache}}
			fr, err = ex.Run(spec, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("frontier %s: %w", job.policy, err)
		}
		*job.dst = fr
	}
	out.Pairs = balance(out.Conv, out.Ext)
	return out, nil
}

// balance matches each conventional frontier point with the
// cheapest-energy extended point of at least the same IPC (0.1%
// tolerance, as in Table 4). Pairs where the extended file is not
// actually cheaper are kept too — a negative saving is a finding, not
// a formatting error.
func balance(conv, ext *search.Frontier) []BalanceRow {
	var rows []BalanceRow
	for _, c := range conv.Frontier {
		var best *search.Eval
		for _, e := range ext.Frontier {
			if e.Objectives.IPC < c.Objectives.IPC*0.999 {
				continue
			}
			if best == nil || e.Objectives.EnergyPJ < best.Objectives.EnergyPJ {
				best = e
			}
		}
		if best == nil {
			continue
		}
		rows = append(rows, BalanceRow{
			Conv: c.Candidate, Ext: best.Candidate,
			ConvIPC: c.Objectives.IPC, ExtIPC: best.Objectives.IPC,
			ConvEnergyPJ: c.Objectives.EnergyPJ, ExtEnergyPJ: best.Objectives.EnergyPJ,
			SavedPct: 100 * (c.Objectives.EnergyPJ - best.Objectives.EnergyPJ) / c.Objectives.EnergyPJ,
		})
	}
	return rows
}

// String renders both frontiers and the searched energy balance.
func (f *FrontierResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Searched §4.4 energy balance (hill-climb, seed %d, budget %d per policy)\n\n",
		f.Conv.Spec.Seed, f.Conv.Spec.Budget)
	for _, side := range []struct {
		name string
		fr   *search.Frontier
	}{{"conventional", f.Conv}, {"extended", f.Ext}} {
		t := stats.NewTable("int+fp", "hm IPC", "E/acc (pJ)", "t/acc (ns)", "early/1k")
		for _, e := range side.fr.Frontier {
			t.AddRow(fmt.Sprintf("%d+%d", e.Candidate.IntRegs, e.Candidate.FPRegs),
				fmt.Sprintf("%.3f", e.Objectives.IPC),
				fmt.Sprintf("%.0f", e.Objectives.EnergyPJ),
				fmt.Sprintf("%.2f", e.Objectives.AccessNs),
				fmt.Sprintf("%.1f", e.Objectives.EarlyPerKilo))
		}
		fmt.Fprintf(&b, "%s frontier (%d of %d evaluated):\n%s\n",
			side.name, len(side.fr.Frontier), side.fr.Evaluations, t.String())
	}
	t := stats.NewTable("conv", "ext", "conv IPC", "ext IPC", "conv pJ", "ext pJ", "saved")
	for _, r := range f.Pairs {
		t.AddRow(fmt.Sprintf("%d+%d", r.Conv.IntRegs, r.Conv.FPRegs),
			fmt.Sprintf("%d+%d", r.Ext.IntRegs, r.Ext.FPRegs),
			fmt.Sprintf("%.3f", r.ConvIPC), fmt.Sprintf("%.3f", r.ExtIPC),
			fmt.Sprintf("%.0f", r.ConvEnergyPJ), fmt.Sprintf("%.0f", r.ExtEnergyPJ),
			fmt.Sprintf("%+.1f%%", r.SavedPct))
	}
	b.WriteString("equal-IPC energy balance (paper: RF64+79 conv ≈ RF56+72 early + 2 LUs Tables):\n")
	b.WriteString(t.String())
	if r, ok := f.Headline(); ok {
		fmt.Fprintf(&b, "headline: ext %d+%d matches conv %d+%d at %+.1f%% energy\n",
			r.Ext.IntRegs, r.Ext.FPRegs, r.Conv.IntRegs, r.Conv.FPRegs, -r.SavedPct)
	}
	return b.String()
}

// Headline returns the balance row at the highest conventional IPC —
// the searched analogue of the paper's single quoted comparison.
func (f *FrontierResult) Headline() (BalanceRow, bool) {
	best := -1
	for i, r := range f.Pairs {
		if best < 0 || r.ConvIPC > f.Pairs[best].ConvIPC {
			best = i
		}
	}
	if best < 0 {
		return BalanceRow{}, false
	}
	return f.Pairs[best], true
}
