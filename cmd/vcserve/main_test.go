package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vcqr/internal/engine"
	"vcqr/internal/hashx"
	"vcqr/internal/sig"
	"vcqr/internal/verify"
	"vcqr/internal/wire"
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
	params := filepath.Join(dir, "params.vcqr")
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

// TestOneShardPublicationServes: vcsign without -shards writes a
// one-shard publication; vcserve -load validates it and serves a query
// that verifies against the params file, and vcserve -coordinator -load
// refuses the same file by name.
func TestOneShardPublicationServes(t *testing.T) {
	dir := t.TempDir()
	vcsign, pubFile, params := filepath.Join(dir, "vcsign"), filepath.Join(dir, "emp.vcqr"), filepath.Join(dir, "params.vcqr")
	if out, err := exec.Command("go", "build", "-o", vcsign, "vcqr/cmd/vcsign").CombinedOutput(); err != nil {
		t.Fatalf("build vcsign: %v\n%s", err, out)
	}
	if out, err := exec.Command(vcsign, "-n", "40", "-out", pubFile, "-params", params).CombinedOutput(); err != nil {
		t.Fatalf("vcsign: %v\n%s", err, out)
	}
	vcserve := func(ctx context.Context, args ...string) *exec.Cmd {
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-test.run=^$", "--", "-addr", "127.0.0.1:0", "-load", pubFile, "-params", params}, args...)...)
		cmd.Env = append(os.Environ(), "VCSERVE_MAIN=1")
		return cmd
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	srv := vcserve(ctx)
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	srv.Stderr = &stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Signal(os.Interrupt)
		srv.Wait()
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if !strings.HasPrefix(line, "publisher serving") {
		t.Fatalf("vcserve -load did not serve (%q, %v):\n%s", line, err, stderr.String())
	}
	fields := strings.Fields(line)
	cp, err := wire.ReadClientParams(params)
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Relation: cp.Schema.Name, KeyLo: 1, KeyHi: 1 << 31}
	res, err := (&wire.Client{BaseURL: "http://" + fields[len(fields)-1]}).Query("manager", q)
	if err != nil {
		t.Fatal(err)
	}
	v := verify.New(hashx.New(), &sig.PublicKey{N: cp.N, E: cp.E}, cp.Params, cp.Schema)
	if rows, err := v.VerifyResult(q, cp.Roles["manager"], res); err != nil || len(rows) == 0 {
		t.Fatalf("query over the one-shard publication: %d rows, %v", len(rows), err)
	}

	out, err := vcserve(ctx, "-coordinator", "-nodes", "http://127.0.0.1:1").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "coordinator mode needs a partitioned publication") {
		t.Fatalf("vcserve -coordinator -load over a one-shard publication: %v\n%s", err, out)
	}
}
