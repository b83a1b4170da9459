package catalog

import (
	"bytes"
	"os"
	"testing"
)

// TestGenerationFixtureReencodes holds the DSSNAP01 container to the bytes
// an earlier build wrote: testdata/gen-0000000001.snap, a generation holding
// a checkpoint, verifies and re-encodes its payload to the identical file.
func TestGenerationFixtureReencodes(t *testing.T) {
	want, err := os.ReadFile("testdata/gen-0000000001.snap")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := decodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(payload, []byte("DSCP0001")) {
		t.Fatalf("fixture payload starts %q, want a checkpoint", payload[:8])
	}
	if got := encodeSnapshot(t, payload); !bytes.Equal(got, want) {
		t.Fatalf("re-encoded generation differs: %d bytes, fixture %d", len(got), len(want))
	}
}
