package engine

// FirstChunkRows exposes the opening-chunk cap to the schedule tests.
const FirstChunkRows = firstChunkRows
