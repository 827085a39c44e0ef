package table

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"clockrlc/internal/check"
	"clockrlc/internal/spline"
)

// fileFormat is the legacy JSON schema of a table set. Only the axes
// and raw values are stored; splines are rebuilt at load time.
//
// Version history:
//
//	v1 — config, axes, raw values; no integrity information.
//	v2 — adds Checksum (hex SHA-256 of the record serialised with the
//	     checksum field empty) so torn or bit-rotted files are caught
//	     at load instead of poisoning a lookup.
//
// Nothing writes JSON any more (SaveV3 and SaveFileV3 write the v3
// binary codec); loads still accept v1 and v2 so existing artifacts
// keep working and `tablegen migrate` can convert them. Versions newer
// than v2 in a JSON record are rejected rather than guessed at.
type fileFormat struct {
	Version    int       `json:"version"`
	Config     Config    `json:"config"`
	Axes       Axes      `json:"axes"`
	SelfVals   []float64 `json:"self"`
	MutualVals []float64 `json:"mutual"`
	Checksum   string    `json:"checksum,omitempty"`
}

const (
	maxJSONVersion  = 2
	minReadVersion  = 1
	checksumVersion = 2 // first version carrying a checksum
)

// checksum returns the record's integrity hash: hex SHA-256 over the
// canonical JSON serialisation with the checksum field itself empty.
// Go's JSON encoding of float64 is shortest-round-trip, so a decoded
// record re-serialises to the identical bytes and the check is exact.
func (ff fileFormat) checksum() (string, error) {
	ff.Checksum = ""
	b, err := json.Marshal(ff)
	if err != nil {
		return "", fmt.Errorf("checksum: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// load decodes and validates a record, sniffing the v3 binary magic
// to route between the codecs (a JSON document can never begin with
// 'R'); errors carry no "table:" prefix so Load and LoadFile can each
// frame them (LoadFile names the file, per the contract that a bad
// artifact identifies itself).
func load(r io.Reader) (*Set, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(len(v3Magic)); err == nil && bytes.Equal(head, v3Magic[:]) {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("read: %w", err)
		}
		// v3Floats copies any block the buffer leaves unaligned, so an
		// arbitrary reader is fine here; the zero-copy fast path is
		// LoadFile's.
		return decodeV3(data, nil)
	}
	return loadJSON(br)
}

// loadJSON decodes the legacy v1/v2 JSON record.
func loadJSON(r io.Reader) (*Set, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	switch {
	case ff.Version < minReadVersion:
		return nil, fmt.Errorf("bad format version %d (want %d–%d)", ff.Version, minReadVersion, maxJSONVersion)
	case ff.Version > maxJSONVersion:
		return nil, fmt.Errorf("format version %d is newer than this build reads (max %d); rebuild the tables or upgrade", ff.Version, maxJSONVersion)
	}
	if ff.Version >= checksumVersion {
		if ff.Checksum == "" {
			return nil, errors.New("record is missing its checksum")
		}
		want, err := ff.checksum()
		if err != nil {
			return nil, err
		}
		if want != ff.Checksum {
			return nil, fmt.Errorf("checksum mismatch (file corrupt or truncated): stored %.12s…, computed %.12s…", ff.Checksum, want)
		}
	}
	if err := ff.Axes.Validate(); err != nil {
		return nil, err
	}
	nw, ns, nl := len(ff.Axes.Widths), len(ff.Axes.Spacings), len(ff.Axes.Lengths)
	if want := nw * nl; len(ff.SelfVals) != want {
		return nil, fmt.Errorf("self value count %d does not match the axes product %d (%d widths × %d lengths)",
			len(ff.SelfVals), want, nw, nl)
	}
	if want := nw * nw * ns * nl; len(ff.MutualVals) != want {
		return nil, fmt.Errorf("mutual value count %d does not match the axes product %d (%d² widths × %d spacings × %d lengths)",
			len(ff.MutualVals), want, nw, ns, nl)
	}
	selfGrid, err := spline.NewGrid([][]float64{ff.Axes.Widths, ff.Axes.Lengths}, ff.SelfVals)
	if err != nil {
		return nil, fmt.Errorf("self grid: %w", err)
	}
	mutGrid, err := spline.NewGrid(
		[][]float64{ff.Axes.Widths, ff.Axes.Widths, ff.Axes.Spacings, ff.Axes.Lengths}, ff.MutualVals)
	if err != nil {
		return nil, fmt.Errorf("mutual grid: %w", err)
	}
	return &Set{Config: ff.Config, Axes: ff.Axes, Self: selfGrid, Mutual: mutGrid}, nil
}

// Load reads a set written by SaveV3 or a legacy v1/v2 JSON writer,
// verifying the checksum (v2 and v3) and the value counts against the
// axes product. When the process check engine is armed, the loaded
// set is additionally audited against the physical invariants — the
// checksum proves the bytes are the ones saved, the audit proves the
// values could have come from a correct build.
func Load(r io.Reader) (*Set, error) {
	s, err := load(r)
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	if err := s.reportAudit(check.Active()); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadFile reads a set from a file path. v3 files take the zero-copy
// path: the file is mmap'd (plain aligned read where mmap is
// unavailable) and the grids point straight into the image — release
// with Set.Close. Every failure — decode, integrity, or (when the
// check engine is armed) a physical-invariant audit — names the file,
// so a bad artifact in a multi-file library is identifiable.
func LoadFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	defer f.Close()
	var head [8]byte
	n, _ := io.ReadFull(f, head[:])
	var s *Set
	if n == len(head) && head == v3Magic {
		s, err = loadFileV3(f)
	} else {
		if _, serr := f.Seek(0, io.SeekStart); serr != nil {
			return nil, fmt.Errorf("table: %s: %w", path, serr)
		}
		s, err = loadJSON(f)
	}
	if err != nil {
		return nil, fmt.Errorf("table: %s: %w", path, err)
	}
	if err := s.reportAudit(check.Active()); err != nil {
		s.Close()
		return nil, fmt.Errorf("table: %s: %w", path, err)
	}
	return s, nil
}
