package vcqr

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServingTreeIsPaperFree pins the split the tree layout promises:
// nothing that serves, signs or measures a verified query links a
// package of the paper tree (internal/paper/..., reached only through
// cmd/vcbench, bench_test.go and examples/provenance).
func TestServingTreeIsPaperFree(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps",
		"./cmd/vcserve", "./cmd/vcquery", "./cmd/vcsign", "./bench").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if strings.HasPrefix(pkg, "vcqr/internal/paper/") {
			t.Errorf("serving tree depends on %s", pkg)
		}
	}
}

// TestGobStaysInWire pins the codec as a decision two packages hold: of
// everything under internal/ and cmd/, only internal/wire (the wire) and
// internal/store (the disk) import encoding/gob outside their tests.
func TestGobStaysInWire(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Imports}}",
		"./internal/...", "./cmd/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		if !strings.Contains(imports, "encoding/gob") {
			continue
		}
		if pkg != "vcqr/internal/wire" && pkg != "vcqr/internal/store" {
			t.Errorf("%s imports encoding/gob", pkg)
		}
	}
}
