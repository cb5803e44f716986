package elfx

import (
	"fmt"

	"negativaml/internal/fatbin"
)

// LoadFacts are the whole-library facts the driver's module loader and the
// runtime need, derived once per *Library from its own bytes (see Facts).
// They are immutable after construction: every field is read-only.
type LoadFacts struct {
	// NonZero is the number of non-zero bytes in the image; FatbinNonZero
	// the number within the .nv_fatbin section (0 without one).
	NonZero       int64
	FatbinNonZero int64

	// Fatbin is the parsed .nv_fatbin section and Elements its elements in
	// section order (nil without a section or when it does not parse).
	// HasFatbin reports a non-empty section; FatbinErr its parse failure.
	Fatbin    *fatbin.FatBin
	Elements  []*fatbin.Element
	HasFatbin bool
	FatbinErr error

	// byName maps a function name to its index into Library.Funcs or, for
	// a name several functions carry, to -(k+1) for dups[k], their indices
	// in symbol-table order. ids[i] == i backs the one-element answers, so
	// a lookup never allocates. Facts stay with long-lived installs, hence
	// int32 values rather than a slice per name: half the retained bytes.
	byName map[string]int32
	dups   [][]int32
	ids    []int32
}

// Facts returns the library's load facts, building them on first touch.
// Concurrent first touches may build twice; both results are identical and
// the loser is dropped. Unlike Index, facts are never shared between
// libraries: they alias this library's Data and die with it.
func (l *Library) Facts() *LoadFacts {
	if f := l.facts.Load(); f != nil {
		return f
	}
	f := buildFacts(l)
	if !l.facts.CompareAndSwap(nil, f) {
		return l.facts.Load()
	}
	return f
}

func buildFacts(l *Library) *LoadFacts {
	f := &LoadFacts{byName: make(map[string]int32, len(l.Funcs)), ids: make([]int32, len(l.Funcs))}
	for i := range l.Funcs {
		f.ids[i] = int32(i)
		name := l.Funcs[i].Name
		v, seen := f.byName[name]
		switch {
		case !seen:
			f.byName[name] = int32(i)
		case v >= 0:
			f.dups = append(f.dups, []int32{v, int32(i)})
			f.byName[name] = -int32(len(f.dups))
		default:
			f.dups[-v-1] = append(f.dups[-v-1], int32(i))
		}
	}

	r, ok := l.FatbinRange()
	if !ok {
		f.NonZero = NonZeroBytes(l.Data)
		return f
	}
	// One pass over the image: the fatbin section and the bytes around it.
	sec := l.Data[r.Start:r.End]
	f.FatbinNonZero = NonZeroBytes(sec)
	f.NonZero = NonZeroBytes(l.Data[:r.Start]) + f.FatbinNonZero + NonZeroBytes(l.Data[r.End:])
	f.HasFatbin = true
	fb, err := fatbin.Parse(sec)
	if err != nil {
		f.FatbinErr = fmt.Errorf("elfx: %s: %w", l.Name, err)
		return f
	}
	f.Fatbin, f.Elements = fb, fb.Elements()
	return f
}

// funcsNamed returns the indices into Library.Funcs of the functions
// called name, in symbol-table order, or nil.
func (f *LoadFacts) funcsNamed(name string) []int32 {
	v, ok := f.byName[name]
	switch {
	case !ok:
		return nil
	case v >= 0:
		return f.ids[v : v+1 : v+1]
	default:
		return f.dups[-v-1]
	}
}
