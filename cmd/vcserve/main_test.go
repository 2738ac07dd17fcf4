package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as vcserve itself: with
// VCSERVE_MAIN set, the process is main() with the arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv("VCSERVE_MAIN") != "" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"vcserve"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDurabilityFlagsNeedADurableMode pins the startup refusal: a mode
// that keeps no disk image exits non-zero, naming the flag, before it
// writes a params file or listens — instead of serving memory-only.
func TestDurabilityFlagsNeedADurableMode(t *testing.T) {
	dir := t.TempDir()
	params := filepath.Join(dir, "params.gob")
	data := filepath.Join(dir, "data")
	for _, tc := range []struct {
		name, flag string
		args       []string
	}{
		{"single/data-dir", "-data-dir", []string{"-data-dir", data}},
		{"cache-node/data-dir", "-data-dir", []string{"-cache-node", "-data-dir", data}},
		{"single/snapshot-every", "-snapshot-every", []string{"-snapshot-every", "8"}},
		{"coordinator/snapshot-every", "-snapshot-every", []string{"-coordinator", "-data-dir", data, "-snapshot-every", "8"}},
		{"node/snapshot-every-without-data-dir", "-snapshot-every", []string{"-node", "-snapshot-every", "8"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			args := append([]string{"-test.run=^$", "--", "-n", "8", "-addr", "127.0.0.1:0", "-params", params}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), "VCSERVE_MAIN=1")
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("vcserve %v kept running instead of refusing:\n%s", tc.args, out)
			}
			if err == nil {
				t.Fatalf("vcserve %v exited 0:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.flag+" is accepted only with") {
				t.Errorf("vcserve %v: refusal does not name %s:\n%s", tc.args, tc.flag, out)
			}
			if _, err := os.Stat(params); err == nil {
				t.Errorf("vcserve %v wrote %s before refusing", tc.args, params)
			}
			if _, err := os.Stat(data); err == nil {
				t.Errorf("vcserve %v created %s before refusing", tc.args, data)
			}
		})
	}
}
