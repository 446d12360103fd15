package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestRegenSeeds rewrites the FuzzShardCodec seed corpus from the
// sample fixtures — run with REGEN_WIRE_SEEDS=1 after any wire schema
// change (the seeds embed encoded frames, so a version bump stales
// them). Skipped in normal runs.
func TestRegenSeeds(t *testing.T) {
	if os.Getenv("REGEN_WIRE_SEEDS") == "" {
		t.Skip("set REGEN_WIRE_SEEDS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzShardCodec")
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lease, err := EncodeMessage(sampleLease())
	if err != nil {
		t.Fatal(err)
	}
	complete, err := EncodeMessage(sampleComplete())
	if err != nil {
		t.Fatal(err)
	}
	empty, err := EncodeMessage(&CompleteRequest{LeaseID: "l", WorkerID: "w"})
	if err != nil {
		t.Fatal(err)
	}
	write("seed-lease", lease)
	write("seed-complete", complete)
	write("seed-complete-empty", empty)
	bitflip := append([]byte(nil), complete...)
	bitflip[10] ^= 0x41
	write("seed-bitflip", bitflip)
	write("seed-truncated", lease[:len(lease)/2])
	write("seed-garbage", append([]byte{'E', 'R', 'S', 'W', wireVersion, 3}, "not a real payload"...))
	stale := bytes.Clone(lease)
	stale[4] = wireVersion - 1
	write("seed-stale-version", stale)
}
