// Package prof wires the -cpuprofile/-memprofile flags of the sweep
// and explore commands to runtime/pprof, so sweep-level hot spots (the
// engine's job loop, the core's stages, cache recycling) can be inspected
// with `go tool pprof` without a bespoke harness.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into path. It returns a stop function to
// defer; both the empty path and the returned stop are no-ops then.
func Start(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap writes an allocation profile to path (no-op when empty).
// Call it at the end of the run, after the work being measured.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle live-heap numbers before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("write heap profile: %w", err)
	}
	return nil
}
