package verify_test

import (
	"runtime"
	"testing"

	"vcqr/internal/engine"
	"vcqr/internal/relation"
)

// Hash operations a whole verified result counts in record format 2,
// where a disclosed key binds through its leaf and one chain digest C
// stands for both chains: the pre-kernel verifier (commit c274afd,
// format 0) counted 1576, 3185, 3173 and 2682 for the first four queries
// below, rebuilding both chains of every row. Format 1 counted 333, 570,
// 558, 586 and 36; format 2 adds exactly the two boundaries' C, since a
// row ships its C and hashes nothing new.
const (
	opsRange      = 335
	opsProject    = 572
	opsFilter     = 560
	opsHidden     = 588
	opsEmptyRange = 38
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
			t.Errorf("%s %+v: %d ops, format 2 counts %d", sc.role, sc.q, got, sc.want)
		}
	}
}

// TestConsumeAllocsPerEntry: once a stream's first entries chunk has
// sized the released-rows slice, consuming entries allocates nothing — g
// in the verifier's ring, attribute roots and signed digests on the
// stack, rows in the reused slice; nothing per entry, per leaf or per
// disclosed column. Allocation counts repeat exactly, so this is the
// regression gate that timings cannot be on a shared box.
func TestConsumeAllocsPerEntry(t *testing.T) {
	f := newTamperFixture(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
		chunks := engine.ChunkResult(res, 8)
		if len(chunks) < 6 {
			t.Fatalf("%s: want several entries chunks, got %d chunks", sc.name, len(chunks))
		}
		// Header and the first two entries chunks warm the verifier — each
		// of those chunks fills one of its two held-entry slots for the
		// first time; the footer's checks are per stream.
		warm, steady := chunks[:3], chunks[3:len(chunks)-1]
		entries := 0
		for _, c := range steady {
			entries += len(c.Entries)
		}
		const runs = 20
		var total uint64
		for r := 0; r < runs; r++ {
			sv := f.v.NewStreamVerifier(sc.q, f.roles[sc.role])
			consume := func(cs []*engine.Chunk) {
				for _, c := range cs {
					if _, err := sv.Consume(c); err != nil {
						t.Fatal(err)
					}
				}
			}
			consume(warm)
			total += mallocs(func() { consume(steady) })
		}
		perEntry := float64(total) / float64(runs*entries)
		t.Logf("%s: %.2f allocs per entry after the first two entries chunks", sc.name, perEntry)
		if perEntry > 0 && !raceEnabled {
			t.Errorf("%s: %.2f allocs per entry, want 0", sc.name, perEntry)
		}
	}
}

// mallocs counts the heap allocations f makes — testing.AllocsPerRun's
// measure, for work that cannot simply be repeated.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
