//go:build race

package graph

// raceEnabled reports a -race build, whose sync.Pool drops a share of the
// buffers put back, so allocation bounds do not hold.
const raceEnabled = true
