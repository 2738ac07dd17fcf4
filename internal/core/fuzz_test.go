package core

import (
	"testing"

	"vcqr/internal/hashx"
	"vcqr/internal/mht"
)

// FuzzVerifyChain feeds arbitrary byte material into the chain-proof
// verifier: it must never panic and must never reconstruct the combined
// digest of a real record except from the genuine proof. (Run with
// `go test -fuzz=FuzzVerifyChain ./internal/core` for extended fuzzing;
// the seed corpus runs as part of the normal test suite.)
func FuzzVerifyChain(f *testing.F) {
	h := hashx.New()
	p, err := NewParams(0, 1<<16, 2)
	if err != nil {
		f.Fatal(err)
	}
	want, err := sideCombined(h, nil, p, 12345, Up)
	if err != nil {
		f.Fatal(err)
	}
	genuine, err := proveSide(h, p, 12345, Up, 20000)
	if err != nil {
		f.Fatal(err)
	}
	// Seed corpus: genuine proof material and mutations of it.
	var blob []byte
	for _, d := range genuine.Intermediates {
		blob = append(blob, d...)
	}
	f.Add(blob, true, 0)
	f.Add(blob[:len(blob)/2], false, 3)
	f.Add([]byte{}, false, -1)
	f.Add(make([]byte, 1000), true, 99)

	f.Fuzz(func(t *testing.T, material []byte, canonical bool, index int) {
		proof := ChainProof{Canonical: canonical, Index: index}
		// Slice the material into digest-width intermediates.
		sz := h.Size()
		for i := 0; i+sz <= len(material) && len(proof.Intermediates) < p.BP.Digits; i += sz {
			proof.Intermediates = append(proof.Intermediates, hashx.Digest(material[i:i+sz]))
		}
		if canonical {
			if len(material) >= sz {
				proof.RepRoot = hashx.Digest(material[:sz])
			}
		} else {
			if len(material) >= 2*sz {
				proof.CanonDigest = hashx.Digest(material[sz : 2*sz])
			}
			depth := repTreeDepth(p.BP.M())
			for i := 0; i < depth && (i+3)*sz <= len(material); i++ {
				proof.RepPath = append(proof.RepPath, mht.PathElem{
					Sibling: hashx.Digest(material[(i+2)*sz : (i+3)*sz]),
					Right:   index%2 == 0,
				})
			}
		}
		got, err := verifyChain(h, p, proof, Up, 20000)
		if err != nil {
			return // malformed proofs must error, not panic
		}
		if got.Equal(want) && len(material) < 100000 {
			// Reconstructing the genuine combined digest from fuzzed
			// material would be a forgery. The genuine proof itself is
			// not reproducible through this packing (indexes differ), so
			// any hit is a bug.
			t.Fatalf("fuzzed proof reconstructed the genuine combined digest")
		}
	})
}
