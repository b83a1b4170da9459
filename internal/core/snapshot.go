package core

import (
	"fmt"
	"io"

	"dynsample/internal/catalog"
)

// Checksummed snapshot persistence: SaveSmallGroup's raw stream wrapped in
// the catalog container (magic header, per-chunk CRC32, checksummed
// trailer), so truncation and bit rot are detected with a precise error
// instead of being decoded into garbage sample tables. This is the format
// aqpcli -save writes and -restore (aqpcli, aqpd) reads.

// SaveSmallGroupSnapshot writes p in the checksummed snapshot container.
func SaveSmallGroupSnapshot(w io.Writer, p Prepared) error {
	return catalog.WriteSnapshot(w, func(pw io.Writer) error {
		return SaveSmallGroup(pw, p)
	})
}

// LoadSmallGroupSnapshot reads state written by SaveSmallGroupSnapshot,
// verifying every checksum (including unread tail sections) before the
// result is trusted. Anything else — a bare SaveSmallGroup stream included —
// is an error that names the container it expected.
func LoadSmallGroupSnapshot(r io.Reader) (Prepared, error) {
	var p Prepared
	err := catalog.ReadSnapshot(r, func(pr io.Reader) (derr error) {
		p, derr = LoadSmallGroup(pr)
		return derr
	})
	if err != nil {
		return nil, fmt.Errorf("core: reading sample snapshot (the checksummed container aqpcli -save writes): %w", err)
	}
	return p, nil
}
