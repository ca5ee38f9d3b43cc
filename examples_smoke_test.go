package jabasd_bench

import "testing"

// TestExamplesBuild keeps the runnable examples from rotting: they are main
// packages nobody imports, so a plain `go test ./...` would never notice a
// compile error in them if `go build ./...` is skipped. Building multiple
// main packages at once makes the go tool discard the binaries, so this
// writes no artifacts.
func TestExamplesBuild(t *testing.T) {
	goBuild(t, "", "./examples/...")
	goTool(t, "vet", "./examples/...")
}
