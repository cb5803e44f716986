package elfx

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"negativaml/internal/fatbin"
)

// renameSymbol makes function i of lib carry function j's name by pointing
// its symbol's st_name at j's string — the only way to get duplicate names,
// since the Builder rejects them. It returns the reparsed copy.
func renameSymbol(t *testing.T, lib *Library, i, j int) *Library {
	t.Helper()
	data := append([]byte(nil), lib.Data...)
	sym := lib.Section(".symtab")
	if sym == nil {
		t.Fatal("no .symtab")
	}
	le := binary.LittleEndian
	entry := func(fi int) []byte {
		start := lib.Funcs[fi].Range.Start
		for off := sym.Range.Start + symEntrySize; off < sym.Range.End; off += symEntrySize {
			if e := data[off : off+symEntrySize]; e[4]&0xf == sttFunc && int64(le.Uint64(e[8:])) == start {
				return e
			}
		}
		t.Fatalf("no symbol for function %d", fi)
		return nil
	}
	copy(entry(i)[0:4], entry(j)[0:4])
	out, err := Parse(lib.Name, data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLibraryFuncsNamed(t *testing.T) {
	lib := indexedLib(t)
	for i := range lib.Funcs {
		if got := lib.FuncsNamed(lib.Funcs[i].Name); len(got) != 1 || int(got[0]) != i {
			t.Errorf("FuncsNamed(%q) = %v, want [%d]", lib.Funcs[i].Name, got, i)
		}
		if got := lib.FindFunction(lib.Funcs[i].Name); got != &lib.Funcs[i] {
			t.Errorf("FindFunction(%q) = %v, want function %d", lib.Funcs[i].Name, got, i)
		}
	}
	if got := lib.FuncsNamed("absent"); got != nil {
		t.Errorf("FuncsNamed(absent) = %v, want nil", got)
	}
	if lib.FindFunction("absent") != nil {
		t.Error("FindFunction(absent) must be nil")
	}

	// Duplicate names keep symbol-table order, and a duplicate's entry does
	// not disturb its neighbours' answers.
	b := NewBuilder("libdup.so")
	for _, n := range []string{"f0", "f1", "f2", "f3"} {
		b.AddFunction(n, 32)
	}
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Parse("libdup.so", data)
	if err != nil {
		t.Fatal(err)
	}
	dup := renameSymbol(t, renameSymbol(t, orig, 2, 0), 3, 0) // f2 and f3 become f0
	if got := dup.FuncsNamed("f0"); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("FuncsNamed(f0) with duplicates = %v, want [0 2 3]", got)
	}
	if got := dup.FuncsNamed("f1"); len(got) != 1 || got[0] != 1 {
		t.Errorf("FuncsNamed(f1) = %v, want [1]", got)
	}
	if dup.FuncsNamed("f2") != nil || dup.FuncsNamed("f3") != nil {
		t.Error("a renamed function must no longer answer to its old name")
	}
	if dup.FindFunction("f0") != &dup.Funcs[0] {
		t.Error("FindFunction must return the first of duplicate names")
	}
}

func TestLoadFactsMatchScan(t *testing.T) {
	lib := indexedLib(t)
	f := lib.Facts()
	if lib.Facts() != f {
		t.Fatal("Facts must return the cached instance")
	}
	if got, want := f.NonZero, NonZeroBytes(lib.Data); got != want {
		t.Errorf("NonZero = %d, scanned %d", got, want)
	}
	r, ok := lib.FatbinRange()
	if !ok || !f.HasFatbin || f.FatbinErr != nil {
		t.Fatalf("fatbin facts: has=%v err=%v", f.HasFatbin, f.FatbinErr)
	}
	if got, want := f.FatbinNonZero, NonZeroBytesIn(lib.Data, r); got != want {
		t.Errorf("FatbinNonZero = %d, scanned %d", got, want)
	}
	fb, has, err := lib.Fatbin()
	if fb != f.Fatbin || !has || err != nil {
		t.Fatal("Fatbin must return the cached parse")
	}
	fresh, err := fatbin.Parse(lib.Data[r.Start:r.End])
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Elements()
	if len(f.Elements) != len(want) {
		t.Fatalf("elements = %d, want %d", len(f.Elements), len(want))
	}
	for i, e := range f.Elements {
		w := want[i]
		if e.Index != w.Index || e.Kind != w.Kind || e.Arch != w.Arch || e.PayloadRange != w.PayloadRange || e.FileRange != w.FileRange {
			t.Errorf("element %d = %+v, want %+v", i, e, w)
		}
	}
	if x := lib.Index(); len(x.Elements) != len(f.Elements) {
		t.Errorf("index holds %d elements, facts %d", len(x.Elements), len(f.Elements))
	}
}

func TestLoadFactsWithoutFatbin(t *testing.T) {
	b := NewBuilder("libcpu.so")
	b.AddFunction("only_cpu", 32)
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := Parse("libcpu.so", data)
	if err != nil {
		t.Fatal(err)
	}
	f := lib.Facts()
	if f.HasFatbin || f.Fatbin != nil || f.Elements != nil || f.FatbinErr != nil || f.FatbinNonZero != 0 {
		t.Errorf("CPU-only facts carry fatbin state: %+v", f)
	}
	if got, want := f.NonZero, NonZeroBytes(lib.Data); got != want {
		t.Errorf("NonZero = %d, scanned %d", got, want)
	}
}

func TestLoadFactsBadFatbin(t *testing.T) {
	lib := indexedLib(t)
	r, _ := lib.FatbinRange()
	data := append([]byte(nil), lib.Data...)
	data[r.Start] ^= 0xff // break the region magic
	bad, err := Parse("libbad.so", data)
	if err != nil {
		t.Fatal(err)
	}
	fb, has, err := bad.Fatbin()
	if fb != nil || !has || err == nil || !strings.HasPrefix(err.Error(), "elfx: libbad.so: fatbin: bad region magic") {
		t.Fatalf("Fatbin on a damaged section = %v, %v, %v", fb, has, err)
	}
	// Compared by text: identical bytes parsed earlier share one index.
	if x := bad.Index(); x.FatbinErr == nil || x.FatbinErr.Error() != err.Error() || len(x.Elements) != 0 {
		t.Errorf("index must carry the facts' parse error, got %v", x.FatbinErr)
	}
}

// TestLoadFactsConcurrentFirstTouch touches one library's facts from many
// goroutines at once — the verify nodes of one batch sharing a clone — and
// is part of the CI race job.
func TestLoadFactsConcurrentFirstTouch(t *testing.T) {
	lib := indexedLib(t)
	var wg sync.WaitGroup
	got := make([]*LoadFacts, 64)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				got[i] = lib.Facts()
			case 1:
				if _, _, err := lib.Fatbin(); err != nil {
					t.Error(err)
				}
				got[i] = lib.Facts()
			default:
				if lib.FindFunction("fa") == nil {
					t.Error("FindFunction(fa) = nil")
				}
				got[i] = lib.Facts()
			}
			_ = got[i].NonZero + int64(len(got[i].Elements))
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent first touches must settle on one facts instance")
		}
	}
}
