package fatbin

import (
	"encoding/binary"
	"fmt"

	"negativaml/internal/gpuarch"
)

// Header magics and sizes.
const (
	// RegionMagic marks the start of a fatbin region. The value matches the
	// magic observed in real fatbins.
	RegionMagic uint32 = 0xBA55ED50
	// ElementMagic marks the start of an element header ("FBEL").
	ElementMagic uint32 = 0x4c454246

	regionHeaderSize  = 24
	elementHeaderSize = 48
)

// Element kinds.
const (
	KindPTX   uint16 = 1
	KindCubin uint16 = 2
)

// Element is one entry in a fatbin region: a header plus payload.
type Element struct {
	Kind    uint16
	Arch    gpuarch.SM
	Flags   uint32
	Payload []byte

	// Index is the 1-based position of the element across the whole section
	// (assigned by the parser; ignored by the builder).
	Index int
	// FileRange is the range [Start, End) the element occupies within the
	// fatbin section, header included (assigned by the parser).
	FileRange Range
	// PayloadRange is the range of the payload alone (assigned by the parser).
	PayloadRange Range
}

// Range is a half-open byte range [Start, End).
type Range struct {
	Start int64
	End   int64
}

// Len returns the number of bytes the range covers.
func (r Range) Len() int64 { return r.End - r.Start }

// Contains reports whether off falls within the range.
func (r Range) Contains(off int64) bool { return off >= r.Start && off < r.End }

// Overlaps reports whether two ranges share any byte.
func (r Range) Overlaps(o Range) bool { return r.Start < o.End && o.Start < r.End }

func (r Range) String() string { return fmt.Sprintf("[%#x, %#x)", r.Start, r.End) }

// Region is a list of elements preceded by a region header.
type Region struct {
	Elements []Element
}

// FatBin is a parsed or under-construction .nv_fatbin section.
type FatBin struct {
	Regions []Region
}

// AddRegion appends an empty region and returns a pointer to it.
func (f *FatBin) AddRegion() *Region {
	f.Regions = append(f.Regions, Region{})
	return &f.Regions[len(f.Regions)-1]
}

// AddElement appends an element to the region.
func (r *Region) AddElement(e Element) {
	r.Elements = append(r.Elements, e)
}

// Elements returns all elements across regions in section order, with their
// 1-based indices populated (only meaningful after Parse; on a built FatBin
// the indices reflect what Parse would assign).
func (f *FatBin) Elements() []*Element {
	out := make([]*Element, 0, f.ElementCount())
	idx := 1
	for ri := range f.Regions {
		for ei := range f.Regions[ri].Elements {
			e := &f.Regions[ri].Elements[ei]
			if e.Index == 0 {
				e.Index = idx
			}
			idx++
			out = append(out, e)
		}
	}
	return out
}

// ElementCount returns the total number of elements.
func (f *FatBin) ElementCount() int {
	n := 0
	for _, r := range f.Regions {
		n += len(r.Elements)
	}
	return n
}

// TotalSize returns the serialized size of the fatbin in bytes.
func (f *FatBin) TotalSize() int64 {
	var n int64
	for _, r := range f.Regions {
		n += regionHeaderSize
		for _, e := range r.Elements {
			n += elementHeaderSize + int64(padTo8(len(e.Payload)))
		}
	}
	return n
}

func padTo8(n int) int {
	if rem := n % 8; rem != 0 {
		return n + 8 - rem
	}
	return n
}

// Marshal serializes the fatbin.
//
// Region header (24B):  magic u32 | version u16 | headerSize u16 |
//
//	payloadSize u64 (bytes of elements that follow) | reserved u64
//
// Element header (48B): magic u32 | kind u16 | version u16 | headerSize u32 |
//
//	payloadSize u64 | paddedSize u64 | arch u32 | flags u32 | reserved u64 | reserved u32
func (f *FatBin) Marshal() ([]byte, error) {
	le := binary.LittleEndian
	buf := make([]byte, 0, f.TotalSize())
	for ri, r := range f.Regions {
		var regionPayload int
		for _, e := range r.Elements {
			regionPayload += elementHeaderSize + padTo8(len(e.Payload))
		}
		rh := make([]byte, regionHeaderSize)
		le.PutUint32(rh[0:], RegionMagic)
		le.PutUint16(rh[4:], 1)
		le.PutUint16(rh[6:], regionHeaderSize)
		le.PutUint64(rh[8:], uint64(regionPayload))
		buf = append(buf, rh...)
		for ei, e := range r.Elements {
			if e.Kind != KindPTX && e.Kind != KindCubin {
				return nil, fmt.Errorf("fatbin: region %d element %d: invalid kind %d", ri, ei, e.Kind)
			}
			if !e.Arch.Valid() {
				return nil, fmt.Errorf("fatbin: region %d element %d: invalid arch %d", ri, ei, e.Arch)
			}
			eh := make([]byte, elementHeaderSize)
			le.PutUint32(eh[0:], ElementMagic)
			le.PutUint16(eh[4:], e.Kind)
			le.PutUint16(eh[6:], 1)
			le.PutUint32(eh[8:], elementHeaderSize)
			le.PutUint64(eh[12:], uint64(len(e.Payload)))
			le.PutUint64(eh[20:], uint64(padTo8(len(e.Payload))))
			le.PutUint32(eh[28:], uint32(e.Arch))
			le.PutUint32(eh[32:], e.Flags)
			buf = append(buf, eh...)
			buf = append(buf, e.Payload...)
			if pad := padTo8(len(e.Payload)) - len(e.Payload); pad > 0 {
				buf = append(buf, make([]byte, pad)...)
			}
		}
	}
	return buf, nil
}

// Parse decodes a .nv_fatbin section. Offsets in the returned elements are
// relative to the start of data (the section), so callers add the section's
// file offset to obtain absolute file ranges.
//
// Element payloads alias data — Parse performs no payload copies. Callers
// that mutate payload bytes in place (the compactor's zeroing paths) are
// mutating the section they parsed, and callers must keep data alive (and
// unrecycled) for as long as any Element is reachable.
//
// Parse is tolerant of *zeroed* regions: if compaction has zeroed a whole
// region (magic destroyed), parsing stops at the first non-region bytes only
// when they are non-zero; runs of zero bytes are skipped. Zeroed elements
// inside an intact region keep their headers (the compactor preserves
// headers) and surface with a nil-equivalent zero payload.
func Parse(data []byte) (*FatBin, error) {
	le := binary.LittleEndian
	f := &FatBin{}
	off := int64(0)
	index := 1
	for off < int64(len(data)) {
		// Skip zero padding / zeroed tails.
		if le.Uint32(pad4(data, off)) == 0 {
			off++
			continue
		}
		if int(off)+regionHeaderSize > len(data) {
			return nil, fmt.Errorf("fatbin: truncated region header at %#x", off)
		}
		if m := le.Uint32(data[off:]); m != RegionMagic {
			return nil, fmt.Errorf("fatbin: bad region magic %#x at %#x", m, off)
		}
		hSize := int64(le.Uint16(data[off+6:]))
		payload := int64(le.Uint64(data[off+8:]))
		if hSize != regionHeaderSize {
			return nil, fmt.Errorf("fatbin: unsupported region header size %d", hSize)
		}
		if payload < 0 {
			return nil, fmt.Errorf("fatbin: negative region payload size at %#x", off)
		}
		regionEnd := off + hSize + payload
		if regionEnd > int64(len(data)) {
			return nil, fmt.Errorf("fatbin: region at %#x overruns section", off)
		}
		region := Region{Elements: make([]Element, 0, countElements(data, off+hSize, regionEnd))}
		eOff := off + hSize
		for eOff < regionEnd {
			if int(eOff)+elementHeaderSize > len(data) {
				return nil, fmt.Errorf("fatbin: truncated element header at %#x", eOff)
			}
			if m := le.Uint32(data[eOff:]); m != ElementMagic {
				return nil, fmt.Errorf("fatbin: bad element magic %#x at %#x", m, eOff)
			}
			kind := le.Uint16(data[eOff+4:])
			ehSize := int64(le.Uint32(data[eOff+8:]))
			pSize := int64(le.Uint64(data[eOff+12:]))
			padded := int64(le.Uint64(data[eOff+20:]))
			arch := gpuarch.SM(le.Uint32(data[eOff+28:]))
			flags := le.Uint32(data[eOff+32:])
			if ehSize != elementHeaderSize || pSize < 0 || padded < pSize {
				return nil, fmt.Errorf("fatbin: malformed element header at %#x", eOff)
			}
			pStart := eOff + ehSize
			pEnd := pStart + pSize
			if pStart+padded > regionEnd {
				return nil, fmt.Errorf("fatbin: element at %#x overruns region", eOff)
			}
			// Zero-copy: the payload aliases the section, capacity-clamped
			// so appends can never scribble past the element.
			payloadBytes := data[pStart:pEnd:pEnd]
			region.AddElement(Element{
				Kind:         kind,
				Arch:         arch,
				Flags:        flags,
				Payload:      payloadBytes,
				Index:        index,
				FileRange:    Range{Start: eOff, End: pStart + padded},
				PayloadRange: Range{Start: pStart, End: pEnd},
			})
			index++
			eOff = pStart + padded
		}
		f.Regions = append(f.Regions, region)
		off = regionEnd
	}
	return f, nil
}

// countElements walks the element headers in [eOff, regionEnd) and returns
// how many elements a well-formed region holds, so Parse can size the
// Elements slice in one allocation. Malformed headers terminate the count
// early — the full parse pass reports the error.
func countElements(data []byte, eOff, regionEnd int64) int {
	le := binary.LittleEndian
	n := 0
	for eOff < regionEnd {
		if int(eOff)+elementHeaderSize > len(data) || le.Uint32(data[eOff:]) != ElementMagic {
			break
		}
		ehSize := int64(le.Uint32(data[eOff+8:]))
		padded := int64(le.Uint64(data[eOff+20:]))
		if ehSize != elementHeaderSize || padded < 0 {
			break
		}
		next := eOff + ehSize + padded
		if next <= eOff {
			break
		}
		n++
		eOff = next
	}
	return n
}

// pad4 returns a 4-byte window at off, zero-padded past the end of data, so
// the zero-skip probe never reads out of bounds.
func pad4(data []byte, off int64) []byte {
	var w [4]byte
	copy(w[:], data[off:min64(off+4, int64(len(data)))])
	return w[:]
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ExtractCubins returns the payloads of all cubin-kind elements keyed by
// their 1-based element index, mirroring `cuobjdump -xelf all` which names
// extracted files with those indices (paper §3.2). Elements whose payload is
// entirely zeroed (removed by compaction) are skipped.
func ExtractCubins(f *FatBin) map[int][]byte {
	out := make(map[int][]byte)
	for _, e := range f.Elements() {
		if e.Kind != KindCubin {
			continue
		}
		if !AnyNonZero(e.Payload) {
			continue
		}
		out[e.Index] = e.Payload
	}
	return out
}

// AnyNonZero reports whether b contains a non-zero byte. The main loop
// scans 64 bytes per iteration as eight uint64 loads OR-combined before a
// single branch — on zeroed payloads (the common scan target after
// compaction) this cuts the branch count 8× versus the old word-at-a-time
// loop and lets the compiler keep the whole stride in registers. Probing
// live payloads still exits on the first live cache line. It lives here —
// the lowest layer owning byte ranges — so elfx and cudasim share one
// implementation. See BenchmarkAnyNonZero for the measured win.
func AnyNonZero(b []byte) bool {
	le := binary.LittleEndian
	for len(b) >= 64 {
		x := le.Uint64(b) | le.Uint64(b[8:]) | le.Uint64(b[16:]) | le.Uint64(b[24:]) |
			le.Uint64(b[32:]) | le.Uint64(b[40:]) | le.Uint64(b[48:]) | le.Uint64(b[56:])
		if x != 0 {
			return true
		}
		b = b[64:]
	}
	for len(b) >= 8 {
		if le.Uint64(b) != 0 {
			return true
		}
		b = b[8:]
	}
	for _, v := range b {
		if v != 0 {
			return true
		}
	}
	return false
}
