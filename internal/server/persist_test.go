package server_test

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/store"
	"vcqr/internal/wire"
)

// openStore opens the durable node store for a test directory.
func openStore(t *testing.T, h *hashx.Hasher, dir string) *store.NodeStore {
	t.Helper()
	ns, _, err := store.OpenNode(dir, store.Options{Hasher: h, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// A node restarted from disk must prove every recovered slice against
// the owner's public key, then serve streams the unmodified shard
// verifier accepts — with zero slices re-transferred.
func TestRecoverHostedServesVerifiedStream(t *testing.T) {
	h, sr := build(t, 48)
	set, err := partition.Split(sr, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	ns := openStore(t, h, dir)
	for i, sl := range set.Slices {
		if err := ns.LogInstall("Uniform", set.Spec, i, sl, partition.SliceDigest(h, sl)); err != nil {
			t.Fatal(err)
		}
	}
	ns.Close()

	ns2 := openStore(t, h, dir)
	defer ns2.Close()
	role := accessctl.Role{Name: "all"}
	s := server.New(server.Config{
		Hasher: h, Pub: signKey(t).Public(),
		Policy: accessctl.NewPolicy(role), Store: ns2,
	})
	defer s.Close()
	rep, err := s.RecoverHosted()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Uniform/0", "Uniform/1"}; !reflect.DeepEqual(rep.Published, want) {
		t.Fatalf("published %v, want %v (refused %v)", rep.Published, want, rep.Refused)
	}
	st := s.Stats()
	if st.Installs != 0 {
		t.Fatalf("recovery counted %d installs; the zero-re-transfer signal must stay 0", st.Installs)
	}
	if st.Store == nil || st.Store.ColdStarts != 1 {
		t.Fatalf("store stats missing from the node's view: %+v", st.Store)
	}

	// The recovered node answers the shard wire protocol with exactly
	// the installed bytes: digest-identical slices, correct inventory.
	// (The coordinator-level recovery matrix drives full verified
	// streams over a recovered node; here the node's own surface is the
	// subject.)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &wire.Client{BaseURL: ts.URL}
	for shard, sl := range set.Slices {
		dg, err := cl.ShardDigest(wire.ShardRef{Relation: "Uniform", Shard: shard})
		if err != nil {
			t.Fatalf("shard %d digest: %v", shard, err)
		}
		if !dg.Digest.Equal(partition.SliceDigest(h, sl)) {
			t.Fatalf("shard %d serves different bytes than were installed", shard)
		}
	}
	inv := s.HostedInventory()
	if info := inv.Relations["Uniform"]; len(info.Shards) != 2 {
		t.Fatalf("inventory lists %d shards, want 2", len(info.Shards))
	}
}

// A corrupted slice on disk fails the condensed-signature self-check
// and is refused — durably, so the next restart does not resurrect it.
// The untouched sibling slice still serves.
func TestRecoverHostedRefusesTamperedSlice(t *testing.T) {
	h, sr := build(t, 48)
	set, err := partition.Split(sr, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Tamper one owned payload without re-signing: the digest in the
	// install record matches the tampered bytes (a consistent-looking
	// disk), but no signature covers them.
	evil := set.Slices[0].Clone()
	evil.Own(3).Tuple.Attrs[0] = relation.BytesVal([]byte("tampered-on-disk"))
	ns := openStore(t, h, dir)
	if err := ns.LogInstall("Uniform", set.Spec, 0, evil, partition.SliceDigest(h, evil)); err != nil {
		t.Fatal(err)
	}
	if err := ns.LogInstall("Uniform", set.Spec, 1, set.Slices[1], partition.SliceDigest(h, set.Slices[1])); err != nil {
		t.Fatal(err)
	}
	ns.Close()

	ns2 := openStore(t, h, dir)
	role := accessctl.Role{Name: "all"}
	s := server.New(server.Config{
		Hasher: h, Pub: signKey(t).Public(),
		Policy: accessctl.NewPolicy(role), Store: ns2,
	})
	rep, err := s.RecoverHosted()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Refused) != 1 || len(rep.Published) != 1 || rep.Published[0] != "Uniform/1" {
		t.Fatalf("refusal off: published %v refused %v", rep.Published, rep.Refused)
	}
	inv := s.HostedInventory()
	if info := inv.Relations["Uniform"]; len(info.Shards) != 1 || info.Shards[0].Shard != 1 {
		t.Fatalf("tampered slice served anyway: %+v", info.Shards)
	}
	s.Close()
	ns2.Close()

	// The refusal was logged: a third cold start never sees shard 0.
	ns3 := openStore(t, h, dir)
	defer ns3.Close()
	rec := ns3.Recovered()["Uniform"]
	if len(rec.Shards) != 1 || rec.Shards[0].Shard != 1 {
		t.Fatalf("refused slice resurrected: %+v", rec.Shards)
	}
}

// The install and remove wire paths append before acknowledging: what a
// coordinator installed (and did not remove) is exactly what a restart
// recovers.
func TestServerDurableInstallRemove(t *testing.T) {
	h, sr := build(t, 48)
	set, err := partition.Split(sr, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ns := openStore(t, h, dir)
	role := accessctl.Role{Name: "all"}
	s := server.New(server.Config{
		Hasher: h, Pub: signKey(t).Public(),
		Policy: accessctl.NewPolicy(role), Store: ns,
	})
	for i, sl := range set.Slices {
		man := wire.ShardManifest{
			Spec: set.Spec, Shard: i, Params: sr.Params, Schema: sr.Schema,
			Records: len(sl.Recs),
		}
		if err := s.InstallShard(man, sl.Clone()); err != nil {
			t.Fatalf("install shard %d: %v", i, err)
		}
	}
	if err := s.RemoveShard(wire.ShardRef{Relation: "Uniform", Shard: 2}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Installs != 3 {
		t.Fatalf("installs counter %d, want 3", st.Installs)
	}
	s.Close()
	ns.Close()

	ns2 := openStore(t, h, dir)
	defer ns2.Close()
	s2 := server.New(server.Config{
		Hasher: h, Pub: signKey(t).Public(),
		Policy: accessctl.NewPolicy(role), Store: ns2,
	})
	defer s2.Close()
	rep, err := s2.RecoverHosted()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Uniform/0", "Uniform/1"}; !reflect.DeepEqual(rep.Published, want) {
		t.Fatalf("recovered %v, want %v (shard 2 was removed before the restart)", rep.Published, want)
	}
}
