package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestCoordRoutingReplay(t *testing.T) {
	dir := t.TempDir()
	cl, rep, err := OpenCoord(dir, CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 || rep.RoutingEpoch != 0 {
		t.Fatalf("fresh log report off: %+v", rep)
	}
	if _, _, ok := cl.Routing(); ok {
		t.Fatal("fresh log claims a routing table")
	}
	r1 := [][]string{{"http://a"}, {"http://b"}}
	r2 := [][]string{{"http://b", "http://a"}, {"http://a"}}
	if err := cl.LogRouting(1, r1); err != nil {
		t.Fatal(err)
	}
	if err := cl.LogRouting(2, r2); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	cl2, rep, err := OpenCoord(dir, CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 2 || rep.RoutingEpoch != 2 {
		t.Fatalf("replay report off: %+v", rep)
	}
	epoch, route, ok := cl2.Routing()
	if !ok || epoch != 2 || !reflect.DeepEqual(route, r2) {
		t.Fatalf("recovered routing epoch=%d route=%v", epoch, route)
	}
	cl2.Close()

	// Open compacted the 2-record log down to its latest state: the
	// next replay reads exactly one record.
	cl3, rep, err := OpenCoord(dir, CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl3.Close()
	if rep.Replayed != 1 || rep.RoutingEpoch != 2 {
		t.Fatalf("post-compaction replay off: %+v", rep)
	}
}

// The two-phase bracket: a begin without an end survives restarts as an
// open staged transaction — the ambiguous crash window Recover must
// surface — and an end closes it.
func TestCoordStagedLifecycle(t *testing.T) {
	dir := t.TempDir()
	cl, _, err := OpenCoord(dir, CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tokens := map[string]uint64{"http://a": 7, "http://b": 9}
	if err := cl.LogStagedBegin("Uniform", tokens); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	cl2, rep, err := OpenCoord(dir, CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.OpenStaged, []string{"Uniform"}) {
		t.Fatalf("open staged after crash: %v", rep.OpenStaged)
	}
	if got := cl2.OpenStaged()["Uniform"]; !reflect.DeepEqual(got, tokens) {
		t.Fatalf("staged tokens lost: %v", got)
	}
	if err := cl2.LogStagedEnd("Uniform", false); err != nil {
		t.Fatal(err)
	}
	cl2.Close()

	cl3, rep, err := OpenCoord(dir, CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl3.Close()
	if len(rep.OpenStaged) != 0 || len(cl3.OpenStaged()) != 0 {
		t.Fatalf("resolved transaction still open: %+v", rep)
	}
}

// Compaction rewrites the log atomically; a crash on either side of the
// rename leaves a complete, consistent image.
func TestCoordCompactionCrash(t *testing.T) {
	route := [][]string{{"http://a"}, {"http://b"}}
	for _, p := range []CrashPoint{CrashBeforeRename, CrashAfterRename} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			crash := &Crasher{}
			cl, _, err := OpenCoord(dir, CoordOptions{Crash: crash})
			if err != nil {
				t.Fatal(err)
			}
			for e := uint64(1); e <= 5; e++ {
				if err := cl.LogRouting(e, route); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.LogStagedBegin("Uniform", map[string]uint64{"http://a": 3}); err != nil {
				t.Fatal(err)
			}
			crash.Arm(p)
			if err := cl.Compact(); !errors.Is(err, ErrCrash) {
				t.Fatalf("armed compaction returned %v, want ErrCrash", err)
			}
			cl.Close()

			cl2, rep, err := OpenCoord(dir, CoordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl2.Close()
			epoch, got, ok := cl2.Routing()
			if !ok || epoch != 5 || !reflect.DeepEqual(got, route) {
				t.Fatalf("after %s: routing epoch=%d ok=%v", p, epoch, ok)
			}
			if !reflect.DeepEqual(rep.OpenStaged, []string{"Uniform"}) {
				t.Fatalf("after %s: open staged %v", p, rep.OpenStaged)
			}
			if _, err := os.Stat(filepath.Join(dir, "coord.wal.tmp")); !os.IsNotExist(err) {
				t.Fatalf("after %s: compaction temp file survived the open", p)
			}
		})
	}
}

// A torn tail in the coordinator log truncates to the last whole
// record, keeping everything before it.
func TestCoordTornTail(t *testing.T) {
	dir := t.TempDir()
	cl, _, err := OpenCoord(dir, CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LogRouting(3, [][]string{{"http://a"}}); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	path := filepath.Join(dir, "coord.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x01}) // partial header
	f.Close()

	cl2, rep, err := OpenCoord(dir, CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if !errors.Is(rep.TornTail, ErrWALTorn) {
		t.Fatalf("torn tail reported %v", rep.TornTail)
	}
	if epoch, _, ok := cl2.Routing(); !ok || epoch != 3 {
		t.Fatalf("whole records before the tear lost (epoch=%d ok=%v)", epoch, ok)
	}
}

// Automatic compaction keeps the log bounded without losing state.
func TestCoordAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	cl, _, err := OpenCoord(dir, CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last := uint64(2*DefaultCompactEvery + 1)
	for e := uint64(1); e <= last; e++ {
		if err := cl.LogRouting(e, [][]string{{"http://a"}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := cl.Stats(); st.Compactions < 2 || st.CompactFailures != 0 {
		t.Fatalf("auto compaction stats off: %+v", st)
	}
	cl.Close()

	cl2, rep, err := OpenCoord(dir, CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if rep.RoutingEpoch != last {
		t.Fatalf("recovered epoch %d, want %d", rep.RoutingEpoch, last)
	}
	if rep.Replayed > DefaultCompactEvery {
		t.Fatalf("compaction left %d records to replay", rep.Replayed)
	}
}
