package elfx

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"negativaml/internal/fatbin"
)

// Section is a parsed section header with its file range.
type Section struct {
	Name  string
	Type  uint32
	Flags uint64
	Addr  int64
	Range fatbin.Range
}

// Function is a CPU function recovered from the symbol table, with the file
// range its code occupies.
type Function struct {
	Name  string
	Range fatbin.Range
}

// Library is a parsed ELF shared library held in memory. Data is immutable
// after Parse — the analysis index, the load facts and every downstream memo
// rely on it.
//
// A library derives two read-only views of its bytes lazily, each built on
// first touch and then cached on the *Library (concurrent first touches may
// build twice; one result is kept):
//   - Facts: what loading and running need — the function name table, the
//     non-zero byte counts, the parsed fatbin and its element list. Facts
//     belong to this *Library alone and never enter a process-wide memo, so
//     a library whose Data aliases recycled scratch (a verify clone) takes
//     its facts with it when it dies.
//   - Index: what the locators and byte accountants need — content digest,
//     element table, zero-byte prefix sums — shared between libraries with
//     identical bytes. Computing it hashes the image.
type Library struct {
	Name     string
	Data     []byte
	Sections []Section
	Funcs    []Function

	// Machine is the ELF header's e_machine (EMX8664, EMAarch64, …).
	Machine uint16
	// Soname is the DT_SONAME from the dynamic section, empty when absent.
	Soname string
	// Needed lists DT_NEEDED dependencies in dynamic-section order.
	Needed []string

	// idx caches the lazily built analysis index (see Index).
	idx atomic.Pointer[LibIndex]
	// facts caches the lazily built load facts (see Facts).
	facts atomic.Pointer[LoadFacts]
}

// Parse decodes an ELF64 shared library built by this package (and any
// little-endian ELF64 with standard section/symbol tables).
func Parse(name string, data []byte) (*Library, error) {
	le := binary.LittleEndian
	if len(data) < elfHeaderSize {
		return nil, fmt.Errorf("elfx: %s: file too short", name)
	}
	if data[0] != 0x7f || data[1] != 'E' || data[2] != 'L' || data[3] != 'F' {
		return nil, fmt.Errorf("elfx: %s: bad ELF magic", name)
	}
	if data[4] != 2 || data[5] != 1 {
		return nil, fmt.Errorf("elfx: %s: not little-endian ELF64", name)
	}
	shoff := int64(le.Uint64(data[40:]))
	shentsize := int64(le.Uint16(data[58:]))
	shnum := int(le.Uint16(data[60:]))
	shstrndx := int(le.Uint16(data[62:]))
	if shentsize != sectionHeaderSize {
		return nil, fmt.Errorf("elfx: %s: unexpected shentsize %d", name, shentsize)
	}
	if shoff <= 0 || shoff+int64(shnum)*shentsize > int64(len(data)) {
		return nil, fmt.Errorf("elfx: %s: section header table out of range", name)
	}
	if shstrndx >= shnum {
		return nil, fmt.Errorf("elfx: %s: shstrndx out of range", name)
	}

	type rawSh struct {
		nameOff   uint32
		typ       uint32
		flags     uint64
		addr      uint64
		off, size int64
		link      uint32
	}
	raw := make([]rawSh, shnum)
	for i := 0; i < shnum; i++ {
		h := data[shoff+int64(i)*shentsize:]
		raw[i] = rawSh{
			nameOff: le.Uint32(h[0:]),
			typ:     le.Uint32(h[4:]),
			flags:   le.Uint64(h[8:]),
			addr:    le.Uint64(h[16:]),
			off:     int64(le.Uint64(h[24:])),
			size:    int64(le.Uint64(h[32:])),
			link:    le.Uint32(h[40:]),
		}
	}
	// Validate every section range up front, SHT_NULL ones included (the
	// name table and a table's link may point at one); offsets and sizes
	// come from untrusted u64 fields and can be negative after the int64
	// conversion.
	for i, s := range raw {
		if s.off < 0 || s.size < 0 || s.off > int64(len(data)) || s.size > int64(len(data))-s.off {
			return nil, fmt.Errorf("elfx: %s: section %d out of range", name, i)
		}
	}
	// String tables are decoded into one string each and names are taken
	// as substrings of it: one allocation per table instead of per name.
	strSec := raw[shstrndx]
	shstr := string(data[strSec.off : strSec.off+strSec.size])

	lib := &Library{Name: name, Data: data, Machine: le.Uint16(data[18:]), Sections: make([]Section, 0, shnum)}
	for _, s := range raw {
		lib.Sections = append(lib.Sections, Section{
			Name:  readStr(shstr, s.nameOff),
			Type:  s.typ,
			Flags: s.flags,
			Addr:  int64(s.addr),
			Range: fatbin.Range{Start: s.off, End: s.off + s.size},
		})
	}

	// Decode the dynamic section when present: DT_SONAME names the library,
	// DT_NEEDED entries are the dependency edges the ingestion closure walks.
	for i, s := range raw {
		if s.typ != shtDynamic {
			continue
		}
		if int(s.link) >= shnum {
			return nil, fmt.Errorf("elfx: %s: dynamic link out of range", name)
		}
		str := raw[s.link]
		soname, needed, err := ParseDynamic(data[s.off:s.off+s.size], data[str.off:str.off+str.size])
		if err != nil {
			return nil, fmt.Errorf("elfx: %s: section %d: %w", name, i, err)
		}
		lib.Soname, lib.Needed = soname, needed
		break
	}

	// Recover functions from .symtab (preferred) or .dynsym.
	symIdx := -1
	for i, s := range raw {
		if s.typ == shtSymtab {
			symIdx = i
			break
		}
	}
	if symIdx < 0 {
		for i, s := range raw {
			if s.typ == shtDynsym {
				symIdx = i
				break
			}
		}
	}
	if symIdx >= 0 {
		symSec := raw[symIdx]
		if int(symSec.link) >= shnum {
			return nil, fmt.Errorf("elfx: %s: symtab link out of range", name)
		}
		strSec := raw[symSec.link]
		strs := string(data[strSec.off : strSec.off+strSec.size])
		n := int(symSec.size / symEntrySize)
		lib.Funcs = make([]Function, 0, max(n-1, 0))
		for i := 1; i < n; i++ { // skip null symbol
			s := data[symSec.off+int64(i*symEntrySize):]
			info := s[4]
			if info&0xf != sttFunc {
				continue
			}
			shndx := int(le.Uint16(s[6:]))
			value := int64(le.Uint64(s[8:]))
			size := int64(le.Uint64(s[16:]))
			if shndx <= 0 || shndx >= shnum {
				continue
			}
			sect := raw[shndx]
			// File offset = value - sh_addr + sh_offset.
			off := value - int64(sect.addr) + sect.off
			if off < 0 || size < 0 || off > int64(len(data)) || size > int64(len(data))-off {
				continue // damaged symbol; skip rather than index out of range
			}
			lib.Funcs = append(lib.Funcs, Function{
				Name:  readStr(strs, le.Uint32(s[0:])),
				Range: fatbin.Range{Start: off, End: off + size},
			})
		}
	}
	return lib, nil
}

// readStr returns the NUL-terminated string at off in a string table, or ""
// when off is out of range. The result is a substring of tab.
func readStr(tab string, off uint32) string {
	if int(off) >= len(tab) {
		return ""
	}
	end := int(off)
	for end < len(tab) && tab[end] != 0 {
		end++
	}
	return tab[off:end]
}

// Section returns the named section, or nil.
func (l *Library) Section(name string) *Section {
	for i := range l.Sections {
		if l.Sections[i].Name == name {
			return &l.Sections[i]
		}
	}
	return nil
}

// FatbinRange returns the file range of the .nv_fatbin section and whether
// the library has one with non-zero size.
func (l *Library) FatbinRange() (fatbin.Range, bool) {
	s := l.Section(FatbinSection)
	if s == nil || s.Range.Len() == 0 {
		return fatbin.Range{}, false
	}
	return s.Range, true
}

// Fatbin returns the library's parsed .nv_fatbin section. Returns nil,
// false when the library carries no GPU code. The parse is built once per
// library (see Facts) and shared by every caller: treat it as read-only.
func (l *Library) Fatbin() (*fatbin.FatBin, bool, error) {
	f := l.Facts()
	return f.Fatbin, f.HasFatbin, f.FatbinErr
}

// FileSize returns the library's file size in bytes.
func (l *Library) FileSize() int64 { return int64(len(l.Data)) }

// TextSize returns the size of the .text (CPU code) section.
func (l *Library) TextSize() int64 {
	if s := l.Section(".text"); s != nil {
		return s.Range.Len()
	}
	return 0
}

// GPUCodeSize returns the size of the .nv_fatbin section.
func (l *Library) GPUCodeSize() int64 {
	if s := l.Section(FatbinSection); s != nil {
		return s.Range.Len()
	}
	return 0
}

// FindFunction returns the first function with the given name in
// symbol-table order, or nil.
func (l *Library) FindFunction(name string) *Function {
	if fi := l.FuncsNamed(name); len(fi) > 0 {
		return &l.Funcs[fi[0]]
	}
	return nil
}

// FuncsNamed returns the indices into Funcs of every function with the
// given name, in symbol-table order. The slice is shared: read-only.
func (l *Library) FuncsNamed(name string) []int32 { return l.Facts().funcsNamed(name) }

// FunctionAlive reports whether the function's code range is still present
// (not zeroed out by compaction).
func (l *Library) FunctionAlive(f *Function) bool {
	if f.Range.Start < 0 || f.Range.End > int64(len(l.Data)) {
		return false
	}
	return fatbin.AnyNonZero(l.Data[f.Range.Start:f.Range.End])
}
