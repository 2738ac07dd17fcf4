package wire

// ErrMalformed lets the external tests name the unexported sentinel every
// payload decoder refuses a malformed frame with.
var ErrMalformed = errMalformed
