package search

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, sp := range []*Space{
		testSpec("random", 1).Space,
		{Policies: []string{"conv", "basic"}, IntRegs: []int{40, 64},
			FPRegs: []int{48, 80}, Axes: []AxisRange{{Name: "issue", Values: []int{2, 4}}}},
		DefaultSpace(),
	} {
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 50; i++ {
			g := sp.random(rng)
			back, err := sp.encode(sp.decode(g))
			if err != nil {
				t.Fatalf("encode(decode(%v)): %v", g, err)
			}
			if back.key() != g.key() {
				t.Fatalf("round trip: %v -> %v", g, back)
			}
		}
	}
}

func TestEncodeRejectsForeignCandidates(t *testing.T) {
	sp := testSpec("random", 1).Space
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	cases := []Candidate{
		{Policy: "basic", IntRegs: 40, FPRegs: 40},                                     // policy not in space
		{Policy: "conv", IntRegs: 72, FPRegs: 72},                                      // size not in space
		{Policy: "conv", IntRegs: 40, FPRegs: 48},                                      // fp untied in a tied space
		{Policy: "conv", IntRegs: 40, FPRegs: 40, Machine: map[string]int{"issue": 4}}, // axis not in space
		{Policy: "conv", IntRegs: 40, FPRegs: 40, Machine: map[string]int{"ros": 96}},  // value not in axis
		{Policy: "conv", IntRegs: 40, FPRegs: 40, Machine: map[string]int{"bogus": 1}}, // unknown axis name
	}
	for i, c := range cases {
		if _, err := sp.encode(c); err == nil {
			t.Errorf("case %d: foreign candidate accepted: %+v", i, c)
		}
	}
}

// exploreFrontier runs one small exploration for the persistence tests.
func exploreFrontier(t *testing.T) *Frontier {
	t.Helper()
	fr, err := (&Explorer{}).Run(testSpec("random", 6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Frontier) == 0 {
		t.Fatal("exploration produced an empty frontier")
	}
	return fr
}

// TestFrontierJSONRoundTripPassesCheck reads a frontier back the way
// sweepd recovers one from its state dir: decoded from its JSON and
// fsck'd by CheckFrontier.
func TestFrontierJSONRoundTripPassesCheck(t *testing.T) {
	fr := exploreFrontier(t)
	want, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	got := &Frontier{}
	if err := json.Unmarshal(want, got); err != nil {
		t.Fatal(err)
	}
	if err := CheckFrontier(got); err != nil {
		t.Fatal(err)
	}
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Fatalf("frontier changed across the round trip:\nwant %s\nhave %s", want, have)
	}

	// The rebuilt archive reproduces the decoded frontier exactly —
	// genomes were re-derived, not trusted from the JSON.
	arch, err := RebuildArchive(got)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Len() != len(fr.Frontier) {
		t.Fatalf("archive has %d evals, frontier %d", arch.Len(), len(fr.Frontier))
	}
	refront, _ := json.Marshal(arch.Frontier())
	wantFront, _ := json.Marshal(fr.Frontier)
	if string(refront) != string(wantFront) {
		t.Fatalf("rebuilt frontier differs:\nwant %s\nhave %s", wantFront, refront)
	}
}

func TestCheckFrontierRejectsDominatedSet(t *testing.T) {
	fr := exploreFrontier(t)
	worse := *fr.Frontier[0]
	worse.Objectives.IPC /= 2
	worse.Objectives.EnergyPJ *= 2
	worse.Objectives.AccessNs *= 2
	// Give it a distinct genome so the duplicate check doesn't fire first.
	c := worse.Candidate
	if c.IntRegs == 40 {
		c.IntRegs, c.FPRegs = 48, 48
	} else {
		c.IntRegs, c.FPRegs = 40, 40
	}
	worse.Candidate = c
	fr.Frontier = append(fr.Frontier, &worse)
	if err := CheckFrontier(fr); err == nil {
		t.Fatal("dominated frontier passed the fsck")
	}
}
