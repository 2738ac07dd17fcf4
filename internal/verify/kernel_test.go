package verify_test

import (
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/relation"
)

// TestVerifyOpsMatchPreKernelCounts: a whole verified result counts the
// hash operations the pre-kernel verifier (commit c274afd) counted for
// it, so the Chash figures the experiments report stay comparable.
func TestVerifyOpsMatchPreKernelCounts(t *testing.T) {
	f := newTamperFixture(t)
	for _, sc := range []struct {
		role string
		q    engine.Query
		want uint64
	}{
		{"all", engine.Query{Relation: "Emp", KeyLo: 1, KeyHi: 1 << 19}, 1576},
		{"all", engine.Query{Relation: "Emp", KeyLo: 1, Project: []string{"Name", "Dept"}}, 3185},
		{"all", engine.Query{Relation: "Emp", KeyLo: 1, Filters: []engine.Filter{{Col: "Dept", Op: engine.OpLe, Val: relation.IntVal(2)}}}, 3173},
		{"clerk", engine.Query{Relation: "Emp", KeyLo: 1}, 2682},
		{"all", engine.Query{Relation: "Emp", KeyLo: 3, KeyHi: 3}, 36},
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
			t.Errorf("%s %+v: %d ops, pre-kernel %d", sc.role, sc.q, got, sc.want)
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
