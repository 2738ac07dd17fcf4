package verify_test

import (
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/relation"
)

// Hash operations a whole verified result counts in record format 1,
// where a disclosed key binds through its leaf: the pre-kernel verifier
// (commit c274afd, format 0) counted 1576, 3185, 3173 and 2682 for the
// first four queries below, rebuilding both chains of every row; the
// empty range touches no entry and counts 36 in both formats.
const (
	opsRange      = 333
	opsProject    = 570
	opsFilter     = 558
	opsHidden     = 586
	opsEmptyRange = 36
)

// TestVerifyOpsMatchPreKernelCounts: a whole verified result counts
// exactly the hash operations its record format prescribes, so the Chash
// figures the experiments report stay comparable.
func TestVerifyOpsMatchPreKernelCounts(t *testing.T) {
	f := newTamperFixture(t)
	for _, sc := range []struct {
		role string
		q    engine.Query
		want uint64
	}{
		{"all", engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}, opsRange},
		{"all", engine.Query{Relation: "Emp", KeyLo: 1, Project: []string{"Name", "Dept"}}, opsProject},
		{"all", engine.Query{Relation: "Emp", KeyLo: 1, Filters: []engine.Filter{{Col: "Dept", Op: engine.OpLe, Val: relation.IntVal(2)}}}, opsFilter},
		{"clerk", engine.Query{Relation: "Emp", KeyLo: 1}, opsHidden},
		{"all", engine.Query{Relation: "Emp", KeyLo: 3, KeyHi: 3}, opsEmptyRange},
	} {
		res, err := f.pub.Execute(sc.role, sc.q)
		if err != nil {
			t.Fatal(err)
		}
		f.v.H.ResetOps()
		if _, err := f.v.VerifyResult(sc.q, f.roles[sc.role], res); err != nil {
			t.Fatal(err)
		}
		if got := f.v.H.Ops(); got != sc.want {
			t.Errorf("%s %+v: %d ops, format 1 counts %d", sc.role, sc.q, got, sc.want)
		}
	}
}

// TestConsumeAllocsPerEntry: consuming a 64-entry chunk allocates at most
// six objects per entry — the digests that outlive the entry and the
// released rows; nothing per digit, per leaf or per disclosed column.
// Allocation counts repeat exactly, so this is the regression gate that
// timings cannot be on a shared box.
func TestConsumeAllocsPerEntry(t *testing.T) {
	f := newTamperFixture(t)
	for _, sc := range []struct {
		name string
		role string
		q    engine.Query
	}{
		{"scan", "all", engine.Query{Relation: "Emp"}},
		{"project+filter", "all", engine.Query{Relation: "Emp", Project: []string{"Name", "Dept"},
			Filters: []engine.Filter{{Col: "Dept", Op: engine.OpLe, Val: relation.IntVal(3)}}}},
		{"hidden rows", "clerk", engine.Query{Relation: "Emp"}},
	} {
		res, err := f.pub.Execute(sc.role, sc.q)
		if err != nil {
			t.Fatal(err)
		}
		chunks := engine.ChunkResult(res, 64)
		entries := len(chunks[1].Entries)
		if len(chunks) != 3 || entries < 32 {
			t.Fatalf("%s: want one big entries chunk, got %d chunks", sc.name, len(chunks))
		}
		allocs := testing.AllocsPerRun(20, func() {
			sv := f.v.NewStreamVerifier(sc.q, f.roles[sc.role])
			for _, c := range chunks {
				if _, err := sv.Consume(c); err != nil {
					t.Fatal(err)
				}
			}
		})
		// The header, the footer and the verifier itself are per-stream.
		header := testing.AllocsPerRun(20, func() {
			sv := f.v.NewStreamVerifier(sc.q, f.roles[sc.role])
			if _, err := sv.Consume(chunks[0]); err != nil {
				t.Fatal(err)
			}
		})
		perEntry := (allocs - header) / float64(entries)
		t.Logf("%s: %.0f allocs per stream, %.0f before the first entry, %.2f per entry", sc.name, allocs, header, perEntry)
		if perEntry > 6 && !raceEnabled {
			t.Errorf("%s: %.2f allocs per entry, want <= 6", sc.name, perEntry)
		}
	}
}
