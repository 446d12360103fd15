package main

import (
	"context"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// mainArgsEnv, set in a test binary's environment, makes it run
// sweepd's main with the variable's words as arguments instead of the
// tests.
const mainArgsEnv = "SWEEPD_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"sweepd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gcPercent reads the collector's current GOGC percent: what
// debug.SetGCPercent returns, which it sets back.
func gcPercent() int {
	p := debug.SetGCPercent(100)
	debug.SetGCPercent(p)
	return p
}

// TestPaceHeap: with GOGC unset, sweepd paces the collector at
// sweepdGCPercent; with GOGC set, to a number or to off, it leaves the
// operator's pacing as it is.
func TestPaceHeap(t *testing.T) {
	defer debug.SetGCPercent(gcPercent())
	for _, env := range []string{"", "200", "off"} {
		t.Setenv("GOGC", env)
		if env == "" {
			os.Unsetenv("GOGC")
		}
		const operator = 77 // what the runtime made of GOGC at start-up
		debug.SetGCPercent(operator)
		paceHeap()
		want := operator
		if env == "" {
			want = sweepdGCPercent
		}
		if got := gcPercent(); got != want {
			t.Errorf("GOGC=%q: GC percent %d after paceHeap, want %d", env, got, want)
		}
	}
}

// TestRolesPaceHeap: both roles start under sweepd's pacing, which
// their start-up lines report, and under the operator's with GOGC set.
// Each role runs as this test binary running main, and exits at once:
// the worker because nothing listens where it joins, the coordinator
// because its address is no address.
func TestRolesPaceHeap(t *testing.T) {
	roles := map[string]string{
		"worker":      "-role worker -name w -join http://127.0.0.1:1",
		"coordinator": "-role coordinator -local-workers 0 -addr 127.0.0.1:-1",
	}
	for role, args := range roles {
		for env, want := range map[string]string{"": "GOGC=50", "off": "GOGC=off"} {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0])
			cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
			if env != "" {
				cmd.Env = append(cmd.Env, "GOGC="+env)
			} else {
				cmd.Env = append(cmd.Env, "GOGC=")
			}
			out, _ := cmd.CombinedOutput()
			if !strings.Contains(string(out), want+")\n") {
				t.Errorf("%s with GOGC=%q: output %q, want a start-up line ending (…, %s)", role, env, out, want)
			}
		}
	}
}
