package elfx

import (
	"testing"

	"negativaml/internal/fatbin"
)

// FuzzParseELF is the CI fuzz target for the ELF reader and the analysis
// index built on top of it: Parse must reject corrupt input with an error,
// and whatever it accepts must survive indexing and every byte-accounting
// query without panicking. The seeds cover a plain CPU library, a GPU
// library with a fatbin section, and a handful of degenerate inputs; the
// checked-in corpus under testdata/fuzz extends them.
// FuzzDynamicSection targets the DT_NEEDED/DT_SONAME parser that ingestion
// feeds with dynamic sections we did not author. ParseDynamic must never
// panic: it either rejects the section with an error or returns strings that
// actually came from the supplied table. The checked-in corpus under
// testdata/fuzz was seeded with .dynamic/.dynstr slices cut from the library
// files of an mlframework.WriteTo tree, plus truncated and misaligned
// variants.
func FuzzDynamicSection(f *testing.F) {
	b := NewBuilder("libfuzzdyn.so")
	b.AddFunction("f0", 32)
	b.AddNeeded("libdep_a.so")
	b.AddNeeded("libz.so.1")
	data, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	lib, err := Parse("libfuzzdyn.so", data)
	if err != nil {
		f.Fatal(err)
	}
	dynSec, strSec := lib.Section(".dynamic"), lib.Section(".dynstr")
	dyn := data[dynSec.Range.Start:dynSec.Range.End]
	str := data[strSec.Range.Start:strSec.Range.End]
	f.Add(dyn, str)
	f.Add(dyn[:dynEntrySize], str)   // SONAME only, no terminator
	f.Add(dyn[:dynEntrySize+3], str) // misaligned tail
	f.Add(dyn, []byte{})             // empty string table
	f.Add([]byte{}, str)             // empty dynamic section
	f.Add(dyn, str[:len(str)-1])     // unterminated final string
	f.Add(make([]byte, dynEntrySize*4), str)

	f.Fuzz(func(t *testing.T, dyn, dynstr []byte) {
		soname, needed, err := ParseDynamic(dyn, dynstr)
		if err != nil {
			return
		}
		// Accepted output must be bounded by the inputs: at most one name
		// per entry, and every returned string must fit the table.
		if len(needed) > len(dyn)/dynEntrySize {
			t.Fatalf("%d needed entries from %d bytes of dynamic section", len(needed), len(dyn))
		}
		for _, s := range append(needed, soname) {
			if len(s) > len(dynstr) {
				t.Fatalf("returned string longer than the string table: %d > %d", len(s), len(dynstr))
			}
		}
	})
}

func FuzzParseELF(f *testing.F) {
	b := NewBuilder("libfuzz.so")
	b.AddFunction("alpha", 64)
	b.AddFunction("beta", 128)
	b.SetRodata(make([]byte, 512))
	cpuLib, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cpuLib)

	gb := NewBuilder("libfuzz_cuda.so")
	gb.AddFunction("launch", 64)
	gb.SetFatbin(make([]byte, 128)) // zeroed fatbin: parses as empty
	gpuLib, err := gb.Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gpuLib)

	f.Add([]byte{})
	f.Add([]byte("\x7fELF"))
	f.Add(make([]byte, elfHeaderSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		lib, err := Parse("fuzz", data)
		if err != nil {
			return
		}
		// Accepted input must be safe to index and query: these walk the
		// symbol table, the name table, the section table, the fatbin
		// element table, and the zero-byte prefix sum.
		idx := lib.Index()
		if idx.NonZeroBytes() > idx.Size() {
			t.Fatal("NonZeroBytes exceeds file size")
		}
		if idx.ResidentBytes() > idx.Size()+PageSize {
			t.Fatal("ResidentBytes wildly out of range")
		}
		idx.ZeroBytesIn(fatbin.Range{Start: -8, End: idx.Size() + 8})
		for i := range lib.Funcs {
			lib.FunctionAlive(&lib.Funcs[i])
			if lib.FindFunction(lib.Funcs[i].Name) == nil {
				t.Fatalf("function %q missing from the name table", lib.Funcs[i].Name)
			}
		}
		if got := lib.Facts().NonZero; got != idx.NonZeroBytes() {
			t.Fatalf("load facts count %d non-zero bytes, the index %d", got, idx.NonZeroBytes())
		}
		for _, e := range idx.Elements {
			if e.FileRange.Start < 0 || e.FileRange.End > idx.Size() {
				t.Fatalf("element %d file range %v escapes the image", e.Index, e.FileRange)
			}
		}
	})
}
