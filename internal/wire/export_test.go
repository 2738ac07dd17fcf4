package wire

import "vcqr/internal/engine"

// ErrMalformed lets the external tests name the unexported sentinel every
// payload decoder refuses a malformed frame with.
var ErrMalformed = errMalformed

// ErrResultTooBig and QueryCapped let the external tests drive
// Client.Query's collection bound at a cap small enough to run in a unit
// test.
var ErrResultTooBig = errResultTooBig

func (c *Client) QueryCapped(role string, q engine.Query, limit int64) (*engine.Result, error) {
	return c.collect(role, q, limit)
}
