//go:build race

package online

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation charges allocations to pooled fast paths, so the
// zero-alloc gates skip themselves under -race (they run in the plain
// `go test ./...` tier).
const raceEnabled = true
