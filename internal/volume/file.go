package volume

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteGridFile atomically serializes g to path: the bytes are written
// to a temporary file in the same directory, fsynced, renamed into
// place, and the directory fsynced, so a crash mid-write never leaves
// a torn map where a resuming reader expects a complete one. The cycle
// journal records a map's content digest before the path is trusted,
// so the rename is the durability point, not a correctness
// requirement.
func WriteGridFile(path string, g *Grid) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("volume: writing grid file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = g.WriteTo(f); err != nil {
		return fmt.Errorf("volume: writing grid file: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("volume: syncing grid file: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("volume: closing grid file: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("volume: publishing grid file: %w", err)
	}
	// The rename is durable only once the directory entry is: without
	// this fsync an OS crash can lose the published name that a
	// journal record already points at.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("volume: syncing grid file directory: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making renames into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadGridFile deserializes a grid written by WriteGridFile.
func ReadGridFile(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("volume: reading grid file: %w", err)
	}
	defer f.Close()
	return ReadGrid(f)
}
