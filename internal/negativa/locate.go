package negativa

import (
	"fmt"
	"slices"

	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
)

// RemovalReason classifies why the locator removed a GPU element (§4.3,
// Figure 7).
type RemovalReason int

const (
	// Kept means the element is retained.
	Kept RemovalReason = iota
	// ReasonArchMismatch (Reason I): the element's compute-capability does
	// not match the GPU the workload runs on.
	ReasonArchMismatch
	// ReasonNoUsedKernel (Reason II): the architecture matches but no
	// CPU-launching kernel in the element's cubin was used.
	ReasonNoUsedKernel
)

func (r RemovalReason) String() string {
	switch r {
	case Kept:
		return "kept"
	case ReasonArchMismatch:
		return "arch-mismatch"
	case ReasonNoUsedKernel:
		return "no-used-kernel"
	}
	return "unknown"
}

// ElementDecision records the locator's verdict for one fatbin element.
type ElementDecision struct {
	Index  int
	Arch   gpuarch.SM
	Kind   uint16
	Reason RemovalReason
	// FileRange is the element's absolute file range (header + payload).
	FileRange fatbin.Range
	// PayloadRange is the payload's absolute file range — what compaction
	// zeroes when the element is removed.
	PayloadRange fatbin.Range
	// Kernels is the number of kernels in the element's cubin.
	Kernels int
}

// GPULocation is the kernel locator's output for one library.
type GPULocation struct {
	Decisions []ElementDecision
	// KeptBytes / TotalBytes are payload byte totals.
	KeptBytes  int64
	TotalBytes int64
}

// Kept counts retained elements.
func (g *GPULocation) Kept() int {
	n := 0
	for _, d := range g.Decisions {
		if d.Reason == Kept {
			n++
		}
	}
	return n
}

// RemovedBy counts removed elements with the given reason.
func (g *GPULocation) RemovedBy(r RemovalReason) int {
	n := 0
	for _, d := range g.Decisions {
		if d.Reason == r {
			n++
		}
	}
	return n
}

// LocateGPU runs the kernel locator on one library (§3.2) against its
// parse-once analysis index: used entry-kernel names resolve to element
// positions through the index's reverse map, and element retention is a set
// lookup — no fatbin or cubin bytes are re-parsed per call. archs is the
// set of device architectures the workload ran on (more than one under
// heterogeneous setups; typically a single entry).
//
// An element is retained iff its arch is in archs AND its cubin contains at
// least one used kernel. Because a kernel launched by another kernel is
// compiled into the same cubin, retaining the element retains every
// GPU-launching kernel in the call graph rooted at each used kernel.
func LocateGPU(lib *elfx.Library, usedKernels []string, archs []gpuarch.SM) (*GPULocation, error) {
	idx := lib.Index()
	loc := &GPULocation{}
	if !idx.HasFatbin {
		return loc, nil
	}
	if idx.FatbinErr != nil {
		return nil, idx.FatbinErr
	}
	usedElems := make(map[int32]bool, len(usedKernels))
	for _, k := range usedKernels {
		for _, pos := range idx.ElementsWithEntry(k) {
			usedElems[pos] = true
		}
	}
	archSet := make(map[gpuarch.SM]bool, len(archs))
	for _, a := range archs {
		archSet[a] = true
	}

	for pos := range idx.Elements {
		e := &idx.Elements[pos]
		dec := ElementDecision{
			Index:        e.Index,
			Arch:         e.Arch,
			Kind:         e.Kind,
			FileRange:    e.FileRange,
			PayloadRange: e.PayloadRange,
		}
		loc.TotalBytes += e.PayloadRange.Len()
		switch {
		case !archSet[e.Arch]:
			dec.Reason = ReasonArchMismatch
		case e.Kind != fatbin.KindCubin:
			// PTX and other kinds carry no resolvable kernels; the driver
			// loads the native cubin instead.
			dec.Reason = ReasonNoUsedKernel
		case !e.IsCubinBlob:
			// Already zeroed by a previous compaction pass (re-debloating a
			// debloated library is a no-op for such elements).
			dec.Reason = ReasonNoUsedKernel
		case e.ParseErr != nil:
			return nil, fmt.Errorf("negativa: %s element %d: %w", lib.Name, e.Index, e.ParseErr)
		default:
			dec.Kernels = e.Kernels
			dec.Reason = ReasonNoUsedKernel
			if usedElems[int32(pos)] {
				dec.Reason = Kept
			}
		}
		if dec.Reason == Kept {
			loc.KeptBytes += e.PayloadRange.Len()
		}
		loc.Decisions = append(loc.Decisions, dec)
	}
	return loc, nil
}

// CPULocation is the CPU locator's output: which function ranges to keep.
type CPULocation struct {
	// Keep are the absolute file ranges of used functions.
	Keep []fatbin.Range
	// TotalFuncs / KeptFuncs count symbol-table functions.
	TotalFuncs int
	KeptFuncs  int
	// KeptBytes / TotalBytes are .text byte totals.
	KeptBytes  int64
	TotalBytes int64
}

// LocateCPU maps used CPU function names to their .text file ranges through
// the library's name table (Negativa's location phase for host code):
// O(used) lookups instead of an O(symbol-table) sweep per call. Keep ranges
// come out in symbol-table order, matching the sweeping implementation.
func LocateCPU(lib *elfx.Library, usedFuncs []string) *CPULocation {
	loc := &CPULocation{TotalFuncs: len(lib.Funcs)}
	if s := lib.Section(".text"); s != nil {
		loc.TotalBytes = s.Range.Len()
	}
	var keepIdx []int32
	seen := make(map[string]bool, len(usedFuncs))
	for _, name := range usedFuncs {
		if seen[name] {
			continue
		}
		seen[name] = true
		keepIdx = append(keepIdx, lib.FuncsNamed(name)...)
	}
	slices.Sort(keepIdx)
	for _, fi := range keepIdx {
		fn := &lib.Funcs[fi]
		loc.Keep = append(loc.Keep, fn.Range)
		loc.KeptFuncs++
		loc.KeptBytes += fn.Range.Len()
	}
	return loc
}
