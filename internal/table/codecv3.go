package table

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"clockrlc/internal/geom"
	"clockrlc/internal/spline"
)

// Codec v3 is the zero-copy binary format: a little-endian,
// 8-byte-aligned layout whose on-disk shape is the in-memory shape, so
// a load can mmap the file and point the spline grids straight into
// the mapping — no parse, no float copies, no tridiagonal solves (the
// per-axis spline coefficient matrices are persisted too).
//
// Layout (all offsets fixed, all multi-byte values little-endian):
//
//	off   size  field
//	  0      8  magic "RLCTBLv3"
//	  8      4  u32 version (= 3)
//	 12      4  u32 shielding
//	 16     32  SHA-256 of the whole file with these 32 bytes zeroed
//	 48      8  f64 thickness          56   8  f64 rho
//	 64      8  f64 plane gap          72   8  f64 plane thickness
//	 80      8  f64 frequency
//	 88      4  u32 plane strips       92   4  u32 subW
//	 96      4  u32 subT              100   4  u32 name length
//	104      4  u32 nw                108   4  u32 ns
//	112      4  u32 nl                116   4  u32 reserved (= 0)
//	120     nameLen  set name (UTF-8), zero-padded to a multiple of 8
//	then consecutive f64 blocks, each naturally 8-aligned:
//	  widths[nw]  spacings[ns]  lengths[nl]
//	  self values[nw·nl]  mutual values[nw²·ns·nl]
//	  coefW[nw²]  coefS[ns²]  coefL[nl²]
//
// The coefficient matrices are the per-axis second-derivative maps
// spline.NewGrid computes; persisting them lets the load construct
// grids with NewGridWithCoef that evaluate bit-identically to a
// from-scratch build. Config.Workers is an execution detail (excluded
// from the cache key for the same reason) and is not persisted.
const (
	formatVersionV3 = 3
	v3HeaderSize    = 120
	// v3MaxAxisLen bounds each axis count so the total-size arithmetic
	// below cannot overflow (4096⁴·8 ≈ 2⁵¹ bytes) and a hostile header
	// cannot demand an absurd allocation.
	v3MaxAxisLen = 1 << 12
	v3MaxNameLen = 1 << 12
)

// v3Magic identifies a v3 file; JSON records can never start with
// these bytes ('R' is not valid leading JSON whitespace or syntax).
var v3Magic = [8]byte{'R', 'L', 'C', 'T', 'B', 'L', 'v', '3'}

// hostLittleEndian reports whether float64/uint64 memory order matches
// the on-disk order, enabling the zero-copy reinterpret path. On a
// big-endian host every block is decoded with explicit byte order
// instead — correct, just not zero-copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// v3Checksum hashes the file with the embedded checksum bytes zeroed.
func v3Checksum(data []byte) [32]byte {
	h := sha256.New()
	h.Write(data[:16])
	var zeros [32]byte
	h.Write(zeros[:])
	h.Write(data[48:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// v3Pad rounds n up to the next multiple of 8.
func v3Pad(n int) int { return (n + 7) &^ 7 }

// checkU32 rejects config ints a u32 field cannot faithfully hold.
func checkU32(field string, v int) error {
	if v < 0 || int64(v) > math.MaxUint32 {
		return fmt.Errorf("config %s %d does not fit the v3 format", field, v)
	}
	return nil
}

// encodeV3 serialises the set to the v3 byte layout.
func (s *Set) encodeV3() ([]byte, error) {
	if s.Self == nil || s.Mutual == nil {
		return nil, errors.New("set has no grids")
	}
	if err := s.Axes.Validate(); err != nil {
		return nil, err
	}
	nw, ns, nl := len(s.Axes.Widths), len(s.Axes.Spacings), len(s.Axes.Lengths)
	if nw > v3MaxAxisLen || ns > v3MaxAxisLen || nl > v3MaxAxisLen {
		return nil, fmt.Errorf("axes too large for the v3 format (max %d knots per axis)", v3MaxAxisLen)
	}
	name := []byte(s.Config.Name)
	if len(name) > v3MaxNameLen {
		return nil, fmt.Errorf("set name is %d bytes (v3 max %d)", len(name), v3MaxNameLen)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Shielding", int(s.Config.Shielding)},
		{"PlaneStrips", s.Config.PlaneStrips},
		{"SubW", s.Config.SubW},
		{"SubT", s.Config.SubT},
	} {
		if err := checkU32(f.name, f.v); err != nil {
			return nil, err
		}
	}
	if got, want := len(s.Self.Vals), nw*nl; got != want {
		return nil, fmt.Errorf("self value count %d does not match the axes product %d", got, want)
	}
	if got, want := len(s.Mutual.Vals), nw*nw*ns*nl; got != want {
		return nil, fmt.Errorf("mutual value count %d does not match the axes product %d", got, want)
	}
	coefW, coefS, coefL := s.Self.Coef(0), s.Mutual.Coef(2), s.Self.Coef(1)
	if len(coefW) != nw*nw || len(coefS) != ns*ns || len(coefL) != nl*nl {
		return nil, errors.New("grid coefficient matrices do not match the axes (set not built over its own axes?)")
	}

	namePad := v3Pad(len(name))
	nf := nw + ns + nl + nw*nl + nw*nw*ns*nl + nw*nw + ns*ns + nl*nl
	buf := make([]byte, v3HeaderSize+namePad+8*nf)
	le := binary.LittleEndian
	copy(buf, v3Magic[:])
	le.PutUint32(buf[8:], formatVersionV3)
	le.PutUint32(buf[12:], uint32(s.Config.Shielding))
	for i, v := range []float64{
		s.Config.Thickness, s.Config.Rho, s.Config.PlaneGap,
		s.Config.PlaneThickness, s.Config.Frequency,
	} {
		le.PutUint64(buf[48+8*i:], math.Float64bits(v))
	}
	le.PutUint32(buf[88:], uint32(s.Config.PlaneStrips))
	le.PutUint32(buf[92:], uint32(s.Config.SubW))
	le.PutUint32(buf[96:], uint32(s.Config.SubT))
	le.PutUint32(buf[100:], uint32(len(name)))
	le.PutUint32(buf[104:], uint32(nw))
	le.PutUint32(buf[108:], uint32(ns))
	le.PutUint32(buf[112:], uint32(nl))
	copy(buf[v3HeaderSize:], name)
	off := v3HeaderSize + namePad
	for _, block := range [][]float64{
		s.Axes.Widths, s.Axes.Spacings, s.Axes.Lengths,
		s.Self.Vals, s.Mutual.Vals, coefW, coefS, coefL,
	} {
		for _, v := range block {
			le.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	sum := v3Checksum(buf)
	copy(buf[16:48], sum[:])
	return buf, nil
}

// SaveV3 writes the set in the v3 binary format.
func (s *Set) SaveV3(w io.Writer) error {
	buf, err := s.encodeV3()
	if err != nil {
		return fmt.Errorf("table: %w", err)
	}
	_, err = w.Write(buf)
	return err
}

// SaveFileV3 writes the set to path in the v3 binary format
// atomically: the image is written to a temporary file in the same
// directory, fsynced, and renamed over the destination, so a crash
// mid-save can never leave a truncated file under the final name. The
// directory is fsynced after the rename so the new name itself
// survives a crash. By convention v3 files use the .rlct extension so
// LoadDir can discover them next to legacy .json sets.
func (s *Set) SaveFileV3(path string) error {
	buf, err := s.encodeV3()
	if err != nil {
		return fmt.Errorf("table: save %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("table: save %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op once renamed
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("table: save %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("table: save %s: sync: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("table: save %s: close: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("table: save %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best effort; the data itself is already durable
		d.Close()
	}
	return nil
}

// v3Floats returns data[off : off+8n] as a []float64. When the host is
// little-endian and the region 8-aligned this is a zero-copy
// reinterpret of the underlying bytes (the mmap'd or aligned-read
// buffer); otherwise the block is decoded into a fresh slice.
func v3Floats(data []byte, off, n int) []float64 {
	if n == 0 {
		return nil
	}
	p := &data[off]
	if hostLittleEndian && uintptr(unsafe.Pointer(p))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(p)), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8*i:]))
	}
	return out
}

// decodeV3 decodes a v3 image. unmap, when non-nil, releases the file
// mapping backing data and is adopted by the returned set (Close);
// on any decode error it is the caller's job to unmap.
//
// Errors carry no "table:" prefix, mirroring load: Load and LoadFile
// frame them.
func decodeV3(data []byte, unmap func() error) (*Set, error) {
	if len(data) < v3HeaderSize {
		return nil, fmt.Errorf("v3 record truncated: %d bytes is shorter than the %d-byte header", len(data), v3HeaderSize)
	}
	if [8]byte(data[:8]) != v3Magic {
		return nil, errors.New("bad v3 magic")
	}
	le := binary.LittleEndian
	switch v := le.Uint32(data[8:]); {
	case v < formatVersionV3:
		return nil, fmt.Errorf("bad format version %d in a v3-framed record", v)
	case v > formatVersionV3:
		return nil, fmt.Errorf("format version %d is newer than this build reads (max %d); rebuild the tables or upgrade", v, formatVersionV3)
	}
	if got, want := v3Checksum(data), [32]byte(data[16:48]); got != want {
		return nil, fmt.Errorf("checksum mismatch (file corrupt or truncated): stored %x…, computed %x…", want[:6], got[:6])
	}
	nameLen := int(le.Uint32(data[100:]))
	nw := int(le.Uint32(data[104:]))
	ns := int(le.Uint32(data[108:]))
	nl := int(le.Uint32(data[112:]))
	if nameLen > v3MaxNameLen {
		return nil, fmt.Errorf("name length %d exceeds the v3 limit %d", nameLen, v3MaxNameLen)
	}
	if nw > v3MaxAxisLen || ns > v3MaxAxisLen || nl > v3MaxAxisLen {
		return nil, fmt.Errorf("axis counts %d×%d×%d exceed the v3 limit %d", nw, ns, nl, v3MaxAxisLen)
	}
	nf := uint64(nw) + uint64(ns) + uint64(nl) +
		uint64(nw)*uint64(nl) +
		uint64(nw)*uint64(nw)*uint64(ns)*uint64(nl) +
		uint64(nw)*uint64(nw) + uint64(ns)*uint64(ns) + uint64(nl)*uint64(nl)
	want := uint64(v3HeaderSize) + uint64(v3Pad(nameLen)) + 8*nf
	if uint64(len(data)) != want {
		return nil, fmt.Errorf("size mismatch (corrupt or truncated): %d bytes for a layout needing %d", len(data), want)
	}

	cfg := Config{
		Name:           string(data[v3HeaderSize : v3HeaderSize+nameLen]),
		Thickness:      math.Float64frombits(le.Uint64(data[48:])),
		Rho:            math.Float64frombits(le.Uint64(data[56:])),
		Shielding:      geom.Shielding(le.Uint32(data[12:])),
		PlaneGap:       math.Float64frombits(le.Uint64(data[64:])),
		PlaneThickness: math.Float64frombits(le.Uint64(data[72:])),
		Frequency:      math.Float64frombits(le.Uint64(data[80:])),
		PlaneStrips:    int(le.Uint32(data[88:])),
		SubW:           int(le.Uint32(data[92:])),
		SubT:           int(le.Uint32(data[96:])),
	}

	off := v3HeaderSize + v3Pad(nameLen)
	next := func(n int) []float64 {
		f := v3Floats(data, off, n)
		off += 8 * n
		return f
	}
	axes := Axes{Widths: next(nw), Spacings: next(ns), Lengths: next(nl)}
	selfVals := next(nw * nl)
	mutualVals := next(nw * nw * ns * nl)
	coefW, coefS, coefL := next(nw*nw), next(ns*ns), next(nl*nl)
	if err := axes.Validate(); err != nil {
		return nil, err
	}
	selfGrid, err := spline.NewGridWithCoef(
		[][]float64{axes.Widths, axes.Lengths}, selfVals,
		[][]float64{coefW, coefL})
	if err != nil {
		return nil, fmt.Errorf("self grid: %w", err)
	}
	mutGrid, err := spline.NewGridWithCoef(
		[][]float64{axes.Widths, axes.Widths, axes.Spacings, axes.Lengths}, mutualVals,
		[][]float64{coefW, coefW, coefS, coefL})
	if err != nil {
		return nil, fmt.Errorf("mutual grid: %w", err)
	}
	return &Set{Config: cfg, Axes: axes, Self: selfGrid, Mutual: mutGrid, unmap: unmap}, nil
}

// readAligned reads the whole of f into an 8-aligned buffer (backed by
// a []float64 allocation), so the zero-copy reinterpret in v3Floats
// works even without mmap.
func readAligned(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < v3HeaderSize {
		return nil, fmt.Errorf("v3 record truncated: %d bytes is shorter than the %d-byte header", size, v3HeaderSize)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("file too large to load: %d bytes", size)
	}
	backing := make([]float64, (int(size)+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), int(size))
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// loadFileV3 maps f and decodes it, falling back to an aligned plain
// read where mmap is unavailable or refused. The returned set owns the
// mapping (release with Close); a plain-read set owns nothing.
func loadFileV3(f *os.File) (*Set, error) {
	data, unmap, err := mapFile(f)
	if err != nil {
		// Fallback path: not zero-copy across the file boundary, but
		// still parse-free and solve-free.
		data, err = readAligned(f)
		if err != nil {
			return nil, err
		}
		unmap = nil
	}
	s, err := decodeV3(data, unmap)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	return s, nil
}

// Mapped reports whether the set's grids point into a live file
// mapping (a zero-copy v3 load). Mapped sets are strictly read-only:
// writing a grid value would fault, and the set must outlive no use of
// its values past Close.
func (s *Set) Mapped() bool { return s.unmap != nil }

// Close releases the file mapping backing a zero-copy loaded set.
// After Close the set's axes, values and coefficient matrices must not
// be touched. Close is idempotent and a no-op for heap-backed sets.
func (s *Set) Close() error {
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	return u()
}

// WithLookup returns a set answering out-of-range lookups per p,
// sharing this set's grids. The receiver is never modified — setting
// s.Lookup directly on a set a registry shares across requests would
// be a data race — and the returned copy does not own the file
// mapping: only the original's Close releases it, so the copy must
// not outlive the original.
func (s *Set) WithLookup(p LookupPolicy) *Set {
	if s == nil || s.Lookup == p {
		return s
	}
	cp := *s
	cp.Lookup = p
	cp.unmap = nil
	return &cp
}
