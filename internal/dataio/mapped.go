package dataio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"unsafe"

	"github.com/dcslib/dcs/internal/graph"
)

// This file is the mmap open path of the v2 codec: OpenMapped hands a
// .dcsg file to the kernel's page cache instead of the Go heap. For an
// uncompressed v2 file on a 64-bit little-endian platform the mapped ids
// and weights sections are aliased in place as the graph's CSR arrays —
// opening costs one CRC scan plus the structural validation pass, no
// decode and no copy, and cold adjacency is paged in on demand. Compressed
// sections are decoded once into heap "shadow" buffers. v1 files and
// platforms without mmap fall back to heap loading through the same handle
// type, so callers (the dcsd snapshot store) treat every snapshot
// uniformly and account bytes through one interface.

// Mapped is an open binary graph file: the decoded Graph plus the resources
// behind it. The Graph of a v2 file is backed (graph.FromCSRBacked) by the
// mapping and must not be used after Close; Close is idempotent.
type Mapped struct {
	g      *graph.Graph
	path   string
	mapped int64 // bytes of the read-only file mapping (0 on heap fallback)
	shadow int64 // heap bytes held open: offsets, decoded sections, or the
	// whole graph on the v1/heap fallback
}

// Graph returns the decoded graph. For a mapped v2 file it is backed by the
// file mapping: valid only until Close.
func (m *Mapped) Graph() *graph.Graph { return m.g }

// Path returns the file the graph was opened from.
func (m *Mapped) Path() string { return m.path }

// MappedBytes returns the size of the read-only file mapping, 0 when the
// graph was heap-loaded (v1 file, compressed-only platforms, mmap failure).
func (m *Mapped) MappedBytes() int64 { return m.mapped }

// ShadowBytes returns the heap bytes the open handle holds: decoded
// (shadow) copies of compressed or unaliasable sections, or the entire
// graph on the heap fallback.
func (m *Mapped) ShadowBytes() int64 { return m.shadow }

// Bytes returns the total memory the open handle accounts for — mapped
// plus shadow — which is what the dcsd memory budget charges per open
// snapshot.
func (m *Mapped) Bytes() int64 { return m.mapped + m.shadow }

// Close releases the mapping (if any). The graph and everything derived
// from it become invalid. Idempotent.
func (m *Mapped) Close() error {
	if m.g != nil {
		m.g.Release()
	}
	return nil
}

// OpenMapped opens a binary graph file for serving. Version-2 files are
// memory-mapped read-only: the header and section CRCs are verified with
// one sequential scan, and the offsets — plus the O(e) ids and weights when
// the file is uncompressed — are aliased directly into the mapping when the
// platform allows it (64-bit little-endian), or else decoded into heap
// shadow buffers.
// graph.FromCSRBacked re-verifies every structural invariant, so a hostile
// file with valid CRCs still cannot produce a malformed graph. Version-1
// files are heap-loaded via ReadBinary and served through the same handle.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var pre [6]byte
	if _, err := io.ReadFull(f, pre[:]); err != nil {
		return nil, pathErr(path, fmt.Errorf("dataio: truncated binary graph: %w", err))
	}
	if string(pre[0:4]) != binaryMagic {
		return nil, pathErr(path, fmt.Errorf("dataio: bad magic %q: not a binary graph file", pre[0:4]))
	}
	if v := binary.LittleEndian.Uint16(pre[4:6]); v != binaryVersion2 {
		// v1 (or a future version ReadBinary may learn): heap fallback.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		g, err := ReadBinary(f)
		if err != nil {
			return nil, pathErr(path, err)
		}
		return &Mapped{g: g, path: path, shadow: g.StorageBytes()}, nil
	}

	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < v2Page {
		return nil, pathErr(path, fmt.Errorf("dataio: truncated binary graph: %d bytes", size))
	}
	data, release, isMapped, err := mapFile(f, size)
	if err != nil {
		return nil, pathErr(path, err)
	}
	m, err := openMappedV2(path, data, release, isMapped, size)
	if err != nil {
		release()
		return nil, pathErr(path, err)
	}
	return m, nil
}

// openMappedV2 builds the Mapped handle over the file bytes (mapped or
// heap-read). On error the caller releases data.
func openMappedV2(path string, data []byte, release func(), isMapped bool, size int64) (*Mapped, error) {
	h, err := parseV2Header(data[:v2Page])
	if err != nil {
		return nil, err
	}
	if h.end() != size {
		return nil, fmt.Errorf("dataio: v2 file is %d bytes, header describes %d", size, h.end())
	}
	var sects [3][]byte
	for i, s := range h.sect {
		b := data[s.off : s.off+s.len]
		if got := crc32.Checksum(b, crcTable); got != s.crc {
			return nil, fmt.Errorf("dataio: v2 section %d checksum mismatch: header says %#x, content hashes to %#x", i, s.crc, got)
		}
		sects[i] = b
	}

	// Offsets alias the mapping in place when the platform allows it —
	// FromCSRBacked verifies the monotone cover either way, which subsumes
	// everything decodeV2Offsets checks — and fall back to a heap decode
	// (the O(n) resident index) elsewhere.
	var shadow int64
	off := aliasInt(sects[0], h.n+1)
	if off == nil {
		if off, err = decodeV2Offsets(sects[0], h.n, h.e); err != nil {
			return nil, err
		}
		shadow += int64(len(off)) * 8
	}

	var ids []int32
	if h.flags&v2FlagDeltaIDs != 0 {
		if ids, err = decodeV2IDsDelta(sects[1], off, h.n); err != nil {
			return nil, err
		}
		shadow += int64(h.e) * 4
	} else if a := aliasInt32(sects[1], h.e); a != nil {
		ids = a
	} else {
		if ids, err = decodeV2IDsRaw(sects[1], h.e, h.n); err != nil {
			return nil, err
		}
		shadow += int64(h.e) * 4
	}

	var ws []float64
	if h.flags&v2FlagPalette != 0 {
		if ws, err = decodeV2Weights(sects[2], h.e, true); err != nil {
			return nil, err
		}
		shadow += int64(h.e) * 8
	} else if a := aliasFloat64(sects[2], h.e); a != nil {
		ws = a
	} else {
		if ws, err = decodeV2Weights(sects[2], h.e, false); err != nil {
			return nil, err
		}
		shadow += int64(h.e) * 8
	}

	g, err := graph.FromCSRBacked(h.n, off, ids, ws, release)
	if err != nil {
		return nil, fmt.Errorf("dataio: corrupt binary graph: %w", err)
	}
	m := &Mapped{g: g, path: path, shadow: shadow}
	if isMapped {
		m.mapped = size
	} else {
		// Heap fallback keeps the whole file buffer alive through the
		// aliases; account it as shadow.
		m.shadow += size
	}
	return m, nil
}

// readFileFallback reads f (already open, any position) fully into a heap
// buffer, the degraded path when a real mapping is unavailable.
func readFileFallback(f *os.File, size int64) (data []byte, release func(), mapped bool, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, false, err
	}
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, nil, false, fmt.Errorf("dataio: truncated binary graph: %w", err)
	}
	return b, func() {}, false, nil
}

// canAliasHost reports whether this platform can use little-endian on-disk
// u32/f64 arrays as Go slices in place: 64-bit ints and little-endian
// memory order. Everywhere else the sections are decoded by copy.
func canAliasHost() bool {
	if bits.UintSize != 64 {
		return false
	}
	var b [2]byte
	binary.NativeEndian.PutUint16(b[:], 0x0102)
	return b[0] == 0x02
}

// aliasInt reinterprets b as count little-endian 64-bit ints in place (the
// offsets section), or returns nil when aliasing is unavailable. A stored
// value ≥ 2^63 reinterprets negative and fails the monotone-cover checks in
// graph.FromCSRBacked, so no separate range validation is needed here.
func aliasInt(b []byte, count int) []int {
	if !canAliasHost() {
		return nil
	}
	p := unsafe.SliceData(b)
	if uintptr(unsafe.Pointer(p))%unsafe.Alignof(int(0)) != 0 {
		return nil
	}
	return unsafe.Slice((*int)(unsafe.Pointer(p)), count)
}

// aliasInt32 reinterprets b as count little-endian int32s in place, or
// returns nil when aliasing is unavailable (wrong platform, misaligned
// base) and the caller must decode by copy.
func aliasInt32(b []byte, count int) []int32 {
	if !canAliasHost() {
		return nil
	}
	p := unsafe.SliceData(b)
	if uintptr(unsafe.Pointer(p))%unsafe.Alignof(int32(0)) != 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(p)), count)
}

// aliasFloat64 is aliasInt32 for the weights section.
func aliasFloat64(b []byte, count int) []float64 {
	if !canAliasHost() {
		return nil
	}
	p := unsafe.SliceData(b)
	if uintptr(unsafe.Pointer(p))%unsafe.Alignof(float64(0)) != 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(p)), count)
}
