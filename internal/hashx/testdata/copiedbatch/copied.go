// Package copiedbatch copies a hashx.Batch, which go vet must report
// (hashx's TestVetRefusesCopiedBatch); nothing builds it otherwise.
package copiedbatch

import "vcqr/internal/hashx"

// Copied hands one Batch's kernel to a second owner.
func Copied(h *hashx.Hasher) {
	b := h.Batch()
	b.Hash(nil, []byte("held"))
	c := b
	c.Done()
	b.Done()
}
