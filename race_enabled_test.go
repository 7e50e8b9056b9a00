//go:build race

package lockfreetrie_test

// raceEnabled reports whether the race detector is compiled in.
// Allocation gates skip under race: sync.Pool deliberately drops a
// fraction of Puts when racing, so pooled scratch is reallocated and the
// bytes an operation allocates are not what it costs in production.
const raceEnabled = true
