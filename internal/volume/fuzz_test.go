package volume_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/phantom"
	"repro/internal/volume"
)

// FuzzReadGrid feeds arbitrary bytes to the map artifact reader, the
// path a resuming job takes through a file it did not just write. The
// reader must never panic, and any input it accepts must be exactly
// what Grid.WriteTo produces for the decoded grid.
func FuzzReadGrid(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.map")
	g := phantom.Asymmetric(8, 5, 1)
	if err := volume.WriteGridFile(path, g); err != nil {
		f.Fatal(err)
	}
	artifact, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(artifact)
	f.Add(artifact[:len(artifact)/2])
	f.Add(artifact[:8])

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := volume.ReadGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := g.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d-byte input re-encodes to %d different bytes", len(data), out.Len())
		}
	})
}
