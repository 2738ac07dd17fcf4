package wire_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"vcqr/internal/accessctl"
	"vcqr/internal/basep"
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/owner"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/wire"
	"vcqr/internal/workload"
)

// The format0 types mirror what a build before record format 1 wrote:
// params without a Format, records carrying the two representation-tree
// roots. gob matches struct fields by name, so encoding them writes the
// bytes such a build wrote.
type format0Params struct {
	L, U    uint64
	BP      basep.Params
	Version uint64
}

type format0Record struct {
	Kind                                                    core.Kind
	Tuple                                                   relation.Tuple
	UpRoot, DownRoot, UpCombined, DownCombined, AttrRoot, G hashx.Digest
	Sig                                                     []byte
}

type format0Relation struct {
	Params format0Params
	Schema relation.Schema
	Recs   []format0Record
}

type format0ClientParams struct {
	N      *big.Int
	E      int
	Params format0Params
	Schema relation.Schema
	Roles  map[string]accessctl.Role
}

// TestOldFormatFilesRefused: a params file, a snapshot and a bare
// relation file written before record format 1 — gob files, as every
// file of an earlier build — are refused by name (wire.ErrFileFormat),
// and so are the gob files of the build just before this codec; a file
// in this build's format whose params predate record format 1 is
// refused as such (core.ErrRecordFormat) — never served, never verified
// against.
func TestOldFormatFilesRefused(t *testing.T) {
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Employees(workload.EmployeeConfig{N: 6, L: 0, U: 1 << 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := format0Params{L: sr.Params.L, U: sr.Params.U, BP: sr.Params.BP}
	old := format0Relation{Params: p, Schema: sr.Schema}
	for _, r := range sr.Recs {
		old.Recs = append(old.Recs, format0Record{Kind: r.Kind, Tuple: r.Tuple, UpRoot: r.UpCombined,
			DownRoot: r.DownCombined, UpCombined: r.UpCombined, DownCombined: r.DownCombined,
			AttrRoot: r.AttrRoot, G: r.G, Sig: r.Sig})
	}
	encode := func(prefix string, v any) []byte {
		buf := bytes.NewBufferString(prefix)
		if err := gob.NewEncoder(buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	set, err := partition.Split(sr, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp := wire.ClientParams{N: o.PublicKey().N, E: o.PublicKey().E, Params: sr.Params, Schema: sr.Schema}

	readParams := func(data []byte) error {
		path := filepath.Join(t.TempDir(), "params.vcqr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := wire.ReadClientParams(path)
		return err
	}
	decodePublication := func(data []byte) error {
		_, err := wire.DecodePublication(data)
		return err
	}
	for _, tc := range []struct {
		name string
		data []byte
		read func([]byte) error
	}{
		{"format-0 params file", encode("", format0ClientParams{N: o.PublicKey().N, E: o.PublicKey().E, Params: p, Schema: sr.Schema}), readParams},
		{"format-0 snapshot", encode("vcqr-snapshot-1\n", struct{ Relation *format0Relation }{&old}), decodePublication},
		{"format-0 bare relation", encode("", old), decodePublication},
		{"parent-build params file", encode("", cp), readParams},
		{"parent-build relation snapshot", encode("vcqr-snapshot-1\n", struct{ Relation *core.SignedRelation }{sr}), decodePublication},
		{"parent-build bare relation", encode("", sr), decodePublication},
	} {
		if err := tc.read(tc.data); !errors.Is(err, wire.ErrFileFormat) {
			t.Errorf("%s: %v, want wire.ErrFileFormat", tc.name, err)
		}
	}

	// This build's files, signed before record format 1.
	cp.Params.Format = 0
	path := filepath.Join(t.TempDir(), "params.vcqr")
	if err := wire.WriteClientParams(path, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadClientParams(path); !errors.Is(err, core.ErrRecordFormat) {
		t.Errorf("format-0 params in this build's file: %v, want core.ErrRecordFormat", err)
	}
	stale := set.Slices[0].Clone()
	stale.Params.Format = 0
	blob, err := wire.EncodePublication(&partition.Set{Spec: set.Spec, Slices: []*core.SignedRelation{stale}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodePublication(blob); !errors.Is(err, core.ErrRecordFormat) {
		t.Errorf("format-0 slice in this build's publication: %v, want core.ErrRecordFormat", err)
	}
}

// The format1 types mirror what a build of record format 1 wrote: params
// stamped Format 1, records without the chain digest C, which that
// format folded into g as its two halves.
type format1Record struct {
	Kind                               core.Kind
	Tuple                              relation.Tuple
	UpCombined, DownCombined, AttrRoot hashx.Digest
	G                                  hashx.Digest
	Sig                                []byte
}

type format1Relation struct {
	Params core.Params
	Schema relation.Schema
	Recs   []format1Record
}

type format1Set struct {
	Spec   partition.Spec
	Slices []*format1Relation
}

type format1ClientParams struct {
	N      *big.Int
	E      int
	Params core.Params
	Schema relation.Schema
	Roles  map[string]accessctl.Role
}

// TestFormat1FilesRefused: a params file, a relation snapshot, a
// partition snapshot and a bare relation file written in record format 1
// — gob files — are refused by name at ReadClientParams and
// DecodePublication (wire.ErrFileFormat), as is the parent build's
// partition snapshot; format-1 params and slices in this build's files
// are refused as such (core.ErrRecordFormat).
func TestFormat1FilesRefused(t *testing.T) {
	h := hashx.New()
	o := owner.NewWithKey(h, signKey(t))
	rel, err := workload.Employees(workload.EmployeeConfig{N: 6, L: 0, U: 1 << 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := o.Publish(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.Split(sr, 2)
	if err != nil {
		t.Fatal(err)
	}
	old := func(sr *core.SignedRelation) *format1Relation {
		out := &format1Relation{Params: sr.Params, Schema: sr.Schema}
		out.Params.Format = 1
		for _, r := range sr.Recs {
			out.Recs = append(out.Recs, format1Record{Kind: r.Kind, Tuple: r.Tuple, UpCombined: r.UpCombined,
				DownCombined: r.DownCombined, AttrRoot: r.AttrRoot, G: r.G, Sig: r.Sig})
		}
		return out
	}
	oldSet := format1Set{Spec: set.Spec}
	for _, sl := range set.Slices {
		oldSet.Slices = append(oldSet.Slices, old(sl))
	}
	encode := func(prefix string, v any) []byte {
		buf := bytes.NewBufferString(prefix)
		if err := gob.NewEncoder(buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("params", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "params.gob")
		cp := format1ClientParams{N: o.PublicKey().N, E: o.PublicKey().E, Params: old(sr).Params, Schema: sr.Schema}
		if err := os.WriteFile(path, encode("", cp), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadClientParams(path); !errors.Is(err, wire.ErrFileFormat) {
			t.Errorf("format-1 params file: %v, want wire.ErrFileFormat", err)
		}
		// The same params in this build's file.
		path = filepath.Join(t.TempDir(), "params.vcqr")
		if err := wire.WriteClientParams(path, wire.ClientParams{N: cp.N, E: cp.E, Params: cp.Params, Schema: cp.Schema}); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadClientParams(path); !errors.Is(err, core.ErrRecordFormat) {
			t.Errorf("format-1 params in this build's file: %v, want core.ErrRecordFormat", err)
		}
	})
	for name, data := range map[string][]byte{
		"relation-snapshot":               encode("vcqr-snapshot-1\n", struct{ Relation *format1Relation }{old(sr)}),
		"partition-snapshot":              encode("vcqr-snapshot-1\n", struct{ Partition *format1Set }{&oldSet}),
		"bare-relation":                   encode("", old(sr)),
		"parent-build partition snapshot": encode("vcqr-snapshot-1\n", struct{ Partition *partition.Set }{set}),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := wire.DecodePublication(data); !errors.Is(err, wire.ErrFileFormat) {
				t.Errorf("%s: %v, want wire.ErrFileFormat", name, err)
			}
		})
	}
	t.Run("this build's publication", func(t *testing.T) {
		stale := &partition.Set{Spec: set.Spec}
		for _, sl := range set.Slices {
			sl = sl.Clone()
			sl.Params.Format = 1
			stale.Slices = append(stale.Slices, sl)
		}
		blob, err := wire.EncodePublication(stale)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.DecodePublication(blob); !errors.Is(err, core.ErrRecordFormat) {
			t.Errorf("format-1 slices in this build's publication: %v, want core.ErrRecordFormat", err)
		}
	})
}
