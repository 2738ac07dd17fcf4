package cache

import (
	"errors"

	"vcqr/internal/wire"
)

// NearBudget is the near store's byte budget, for the package's tests.
const NearBudget = nearBudget

// Near returns the client's near store, for the package's tests.
func (c *Client) Near() *Store { return c.near }

// Probe fetches and validates one entry, surfacing the named error a
// Lookup would swallow into a fall-through; a clean miss is (nil, nil).
// No admission tracking, no singleflight, no near store.
func (c *Client) Probe(k Key) ([]byte, error) {
	ks := k.String()
	peer := c.peerFor(ks)
	if peer == nil {
		return nil, errors.New("cache: no peers configured")
	}
	rp, err := peer.CacheOp(&wire.CacheFrame{Get: &wire.CacheGet{Key: ks}})
	if err != nil || !rp.Hit {
		return nil, err
	}
	if err := c.check(ks, rp.Bytes, rp.Sum); err != nil {
		return nil, err
	}
	return rp.Bytes, nil
}
