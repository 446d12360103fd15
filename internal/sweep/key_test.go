package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/release"
)

// The cache's correctness rests on one property: every pipeline.Config
// field that can change a Result is part of the content address. A new
// Config field that json-marshals but is forgotten by nothing (the
// whole struct is hashed) cannot break this — but a field that stops
// marshaling (unexported, json:"-") silently would. This test perturbs
// every leaf of the Config reflectively and asserts the key moves, so
// any silently-uncached axis fails loudly.

// perturbLeaves walks v (a pointer to a struct), calling visit with a
// mutator/restorer pair for every addressable leaf field.
func perturbLeaves(v reflect.Value, path string, visit func(path string, mutate, restore func())) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			perturbLeaves(v.Field(i), path+"."+t.Field(i).Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		visit(path, func() { v.SetInt(old + 1) }, func() { v.SetInt(old) })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := v.Uint()
		visit(path, func() { v.SetUint(old + 1) }, func() { v.SetUint(old) })
	case reflect.Bool:
		old := v.Bool()
		visit(path, func() { v.SetBool(!old) }, func() { v.SetBool(old) })
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		visit(path, func() { v.SetFloat(old + 1) }, func() { v.SetFloat(old) })
	case reflect.Slice:
		old := v.Interface()
		visit(path, func() {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		}, func() { v.Set(reflect.ValueOf(old)) })
	default:
		// A new field kind the walker cannot perturb must be looked at:
		// fail so the test is extended alongside the config.
		visit(path, nil, nil)
	}
}

func TestKeyCoversEveryConfigField(t *testing.T) {
	t.Parallel()
	cfg := pipeline.DefaultConfig(release.Extended, 48, 48)
	cfg.TrackRegStates = true
	baseKey, err := ConfigKey("tomcatv", testScale, cfg)
	if err != nil {
		t.Fatal(err)
	}

	leaves := 0
	perturbLeaves(reflect.ValueOf(&cfg).Elem(), "Config", func(path string, mutate, restore func()) {
		leaves++
		if mutate == nil {
			t.Errorf("%s: unsupported field kind — extend the perturbation walker", path)
			return
		}
		mutate()
		key, err := ConfigKey("tomcatv", testScale, cfg)
		restore()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		if key == baseKey {
			t.Errorf("%s: perturbation did not change the cache key — axis silently uncached", path)
		}
	})
	// The Config must actually have been walked (struct recursion and
	// the FU arrays give well over 30 leaves today).
	if leaves < 30 {
		t.Fatalf("only %d leaves perturbed — walker lost the config", leaves)
	}

	// The identity inputs are covered too.
	for name, k := range map[string]func() (string, error){
		"workload": func() (string, error) { return ConfigKey("swim", testScale, cfg) },
		"scale":    func() (string, error) { return ConfigKey("tomcatv", testScale+1, cfg) },
	} {
		key, err := k()
		if err != nil {
			t.Fatal(err)
		}
		if key == baseKey {
			t.Errorf("%s not part of the content address", name)
		}
	}
}

// TestEveryMachineAxisChangesKey closes the loop from the sweep's wire
// schema: each named axis at a non-baseline value must produce a new
// content address (the property the warm-cache CI smoke relies on).
func TestEveryMachineAxisChangesKey(t *testing.T) {
	t.Parallel()
	base := Point{Workload: "go", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: testScale}
	baseKey, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, ax := range MachineAxes() {
		pt := base
		for _, v := range ax.Sensitivity {
			pt2 := pt
			ax.Set(&pt2, v)
			key, err := pt2.Key()
			if err != nil {
				t.Fatalf("%s=%d: %v", ax.Name, v, err)
			}
			if v == 0 || v == ax.Baseline {
				if key != baseKey {
					t.Errorf("%s=%d (baseline) changed the key", ax.Name, v)
				}
			} else if key == baseKey {
				t.Errorf("%s=%d left the key unchanged — axis silently uncached", ax.Name, v)
			}
		}
	}
}

// TestKeysMatchKey pins Keys and Key to the content address's
// definition: sha256 of json.Marshal of {Workload, Scale, Config}.
// Points cover shared configurations across workloads and scales,
// machine axes, key errors, and a workload name JSON must escape.
func TestKeysMatchKey(t *testing.T) {
	points := acceptanceGrid(20000).Expand()
	points = append(points, Grid{Workloads: []string{"go", `a<b>&"c"`, "naïve\tname"}, Policies: []string{"conv", "bogus"},
		IntRegs: []int{40}, BPredBits: []int{31, 0}, L1DKBs: []int{24, 0}, Scale: 7}.Expand()...)
	keys, errs := Keys(points)
	for i, pt := range points {
		want, wantErr := pt.Key()
		if keys[i] != want || (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("%s: Keys gave %q, %v; Key gave %q, %v", pt, keys[i], errs[i], want, wantErr)
		}
		if wantErr != nil {
			if errs[i].Error() != wantErr.Error() {
				t.Errorf("%s: error %q, want %q", pt, errs[i], wantErr)
			}
			continue
		}
		cfg, err := pt.Config()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(struct {
			Workload string
			Scale    int
			Config   pipeline.Config
		}{pt.Workload, pt.Scale, cfg})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if hex.EncodeToString(sum[:]) != want {
			t.Fatalf("%s: key is not the hash of the point's JSON encoding", pt)
		}
	}
}
