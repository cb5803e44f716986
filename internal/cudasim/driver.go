package cudasim

import (
	"fmt"
	"time"

	"negativaml/internal/cubin"
	"negativaml/internal/cupti"
	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
)

// LoadMode selects when device code is copied to the GPU.
type LoadMode int

const (
	// EagerLoading loads every arch-matching cubin at module-load time
	// (CUDA's historical default).
	EagerLoading LoadMode = iota
	// LazyLoading defers loading a cubin until one of its kernels is first
	// requested via cuModuleGetFunction (CUDA_MODULE_LOADING=LAZY).
	LazyLoading
)

func (m LoadMode) String() string {
	if m == LazyLoading {
		return "lazy"
	}
	return "eager"
}

// Driver is the simulated CUDA driver. It owns the virtual clock, the host
// memory pool, the CUPTI registry, and the device contexts.
type Driver struct {
	Clock    Clock
	Cost     CostModel
	Hooks    cupti.Registry
	CPU      MemTracker
	contexts []*Context

	// Stats.
	APICalls     int64
	KernelLaunch int64
	ChildLaunch  int64
}

// Context is one device's execution context.
type Context struct {
	drv     *Driver
	Device  gpuarch.Device
	GPU     MemTracker
	Mode    LoadMode
	modules []*Module
}

// Module is a shared library loaded into a context.
type Module struct {
	ctx  *Context
	Lib  *elfx.Library
	Mode LoadMode

	// cubins holds the arch-matching, parseable cubins in section order.
	cubins []*loadedCubin
	// byKernel maps a kernel name to its cubin (the last in section order
	// when several carry it).
	byKernel map[string]*loadedCubin
	// handles caches function handles; cuModuleGetFunction fires only on
	// first resolution, matching the driver behaviour the detector relies on.
	handles map[string]*Function

	// ResidentCPU is the host-resident byte count charged for this module.
	ResidentCPU int64
}

type loadedCubin struct {
	cb     *cubin.Cubin
	loaded bool
}

// Function is a kernel handle returned by GetFunction.
type Function struct {
	Module *Module
	Name   string
	kernel int
	lc     *loadedCubin
	// children is the number of device-side kernels reachable from this
	// kernel's call graph, precomputed at resolution time so launches stay
	// allocation-free. childrenOK records whether all of their code is
	// present; launching with missing children traps.
	children   int
	childrenOK bool
}

// New returns a driver with the given cost model.
func New(cost CostModel) *Driver {
	return &Driver{Cost: cost}
}

// NewDefault returns a driver with the calibrated default cost model.
func NewDefault() *Driver { return New(DefaultCostModel()) }

// NewContext creates an execution context on a device.
func (d *Driver) NewContext(dev gpuarch.Device, mode LoadMode) *Context {
	ctx := &Context{drv: d, Device: dev, Mode: mode}
	d.contexts = append(d.contexts, ctx)
	return ctx
}

// Contexts returns all device contexts.
func (d *Driver) Contexts() []*Context { return d.contexts }

// apiCall charges the per-call instrumentation cost and dispatches hooks.
func (d *Driver) apiCall(data *cupti.CallbackData) {
	d.APICalls++
	if d.Hooks.Active() {
		d.Clock.Advance(d.Hooks.InstrumentationCost())
		d.Clock.Advance(d.Hooks.Dispatch(data))
	}
}

// LoadModule maps a shared library into the context (cuModuleLoad).
//
// Host side: the library's resident bytes are charged to CPU memory and the
// page-in cost to the clock. Under lazy loading the fatbin section is not
// paged in (only element headers are touched), so compacted GPU code that
// was zeroed does not cost host memory either way.
//
// Device side: arch-matching cubin elements are indexed; under eager loading
// their code is copied to the GPU immediately. Elements whose payloads were
// zeroed by compaction fail the cubin magic probe and are skipped, exactly
// as the real driver skips removed elements.
func (ctx *Context) LoadModule(lib *elfx.Library) (*Module, error) {
	d := ctx.drv
	m := &Module{ctx: ctx, Lib: lib, Mode: ctx.Mode}

	// ---- Host-side residency ----
	// Residency is byte-granular: at the repository's 1 MB -> 1 KB scale a
	// real 4 KiB page is ~4 simulated bytes, so counting non-zero bytes is
	// the scale-correct model of "pages that are actually backed". Zeroed
	// (compacted) ranges cost neither memory nor page-in time. The counts
	// and the fatbin parse are the library's load facts: derived once per
	// library from its own bytes and shared by every context and run.
	f := lib.Facts()
	if f.FatbinErr != nil {
		return nil, fmt.Errorf("cudasim: load %s: %w", lib.Name, f.FatbinErr)
	}
	resident := f.NonZero
	if ctx.Mode == LazyLoading && f.HasFatbin {
		// Lazy: fatbin payloads are not paged in; only the region and
		// element headers are touched while indexing the module.
		resident = f.NonZero - f.FatbinNonZero
		resident += int64(len(f.Fatbin.Regions))*24 + int64(len(f.Elements))*48
		if resident < 0 {
			resident = 0
		}
		// Lazy can never page in more than eager would.
		if resident > f.NonZero {
			resident = f.NonZero
		}
	}
	m.ResidentCPU = resident
	d.CPU.Alloc(resident)
	d.Clock.Advance(time.Duration(resident) * d.Cost.CPULoadPerByte)

	// ---- Device-side indexing ----
	kernels := 0
	for _, e := range f.Elements {
		if e.Kind != fatbin.KindCubin || e.Arch != ctx.Device.Arch {
			continue
		}
		if !cubin.IsCubin(e.Payload) {
			continue // zeroed by compaction
		}
		cb, err := cubin.Parse(e.Payload)
		if err != nil {
			continue // damaged payload is treated as removed
		}
		m.cubins = append(m.cubins, &loadedCubin{cb: cb})
		kernels += len(cb.Kernels)
	}
	m.byKernel = make(map[string]*loadedCubin, kernels)
	for _, lc := range m.cubins {
		for _, k := range lc.cb.Kernels {
			m.byKernel[k.Name] = lc
		}
		if ctx.Mode == EagerLoading {
			m.loadCubin(lc)
		}
	}

	m.handles = make(map[string]*Function)
	ctx.modules = append(ctx.modules, m)
	d.apiCall(&cupti.CallbackData{
		Domain: cupti.DomainDriverAPI,
		CBID:   cupti.CBIDModuleLoad,
		Module: lib.Name,
		Bytes:  lib.FileSize(),
	})
	return m, nil
}

// loadCubin copies a cubin's code to the GPU, charging memory and time.
func (m *Module) loadCubin(lc *loadedCubin) {
	if lc.loaded {
		return
	}
	lc.loaded = true
	size := int64(lc.cb.CodeSize())
	m.ctx.GPU.Alloc(size)
	m.ctx.drv.Clock.Advance(time.Duration(size) * m.ctx.drv.Cost.GPULoadPerByte)
}

// GetFunction resolves a kernel by name (cuModuleGetFunction).
//
// The first resolution of each kernel goes through the driver: the CUPTI
// hook fires with the kernel name, and under lazy loading the kernel's cubin
// is loaded. Subsequent resolutions return the cached handle without driver
// involvement — mirroring how frameworks cache CUfunction handles so the
// driver function runs once per kernel (§3.1).
func (m *Module) GetFunction(name string) (*Function, error) {
	if fn, ok := m.handles[name]; ok {
		return fn, nil
	}
	d := m.ctx.drv
	d.Clock.Advance(d.Cost.GetFunctionCost)
	d.apiCall(&cupti.CallbackData{
		Domain: cupti.DomainDriverAPI,
		CBID:   cupti.CBIDModuleGetFunction,
		Module: m.Lib.Name,
		Kernel: name,
	})
	lc, ok := m.byKernel[name]
	if !ok {
		return nil, fmt.Errorf("cudasim: %s: no kernel %q for %s", m.Lib.Name, name, m.ctx.Device.Arch)
	}
	kIdx := lc.cb.FindKernel(name)
	k := &lc.cb.Kernels[kIdx]
	if !k.Entry() {
		return nil, fmt.Errorf("cudasim: kernel %q is device-only and cannot be resolved from the host", name)
	}
	if m.Mode == LazyLoading {
		m.loadCubin(lc)
	}
	// Validate the kernel and its device-side call graph: launching code
	// that was zeroed out (over-aggressive debloating) traps on a real GPU,
	// so it must fail here too. Whole-cubin retention guarantees this never
	// fires for the real pipeline; the exact-kernel ablation trips it.
	if !codeAlive(k.Code) {
		return nil, fmt.Errorf("cudasim: kernel %q has zeroed code (corrupted by compaction)", name)
	}
	graph := lc.cb.CallGraphFrom(kIdx)
	childrenOK := true
	for _, idx := range graph {
		if idx != kIdx && !codeAlive(lc.cb.Kernels[idx].Code) {
			childrenOK = false
			break
		}
	}
	fn := &Function{
		Module:     m,
		Name:       name,
		kernel:     kIdx,
		lc:         lc,
		children:   len(graph) - 1,
		childrenOK: childrenOK,
	}
	m.handles[name] = fn
	return fn, nil
}

// codeAlive reports whether kernel code is present (empty code is treated
// as alive; only fully zeroed code counts as removed).
func codeAlive(code []byte) bool {
	return len(code) == 0 || fatbin.AnyNonZero(code)
}

// HasKernel reports whether the module exposes the kernel for this device
// architecture (without resolving it).
func (m *Module) HasKernel(name string) bool {
	_, ok := m.byKernel[name]
	return ok
}

// LoadedGPUBytes returns the device-code bytes currently on the GPU for this
// module.
func (m *Module) LoadedGPUBytes() int64 {
	var n int64
	for _, lc := range m.cubins {
		if lc.loaded {
			n += int64(lc.cb.CodeSize())
		}
	}
	return n
}

// Launch executes a kernel (cuLaunchKernel), following its device-side
// call graph: child launches cost time but never fire host-side hooks for
// cuModuleGetFunction and are not distinguishable to the detector.
func (d *Driver) Launch(fn *Function) error {
	if fn.lc == nil || !fn.lc.loaded {
		return fmt.Errorf("cudasim: kernel %q launched before its cubin was loaded", fn.Name)
	}
	d.KernelLaunch++
	d.Clock.Advance(d.Cost.LaunchCost)
	if d.Hooks.Active() {
		d.apiCall(&cupti.CallbackData{
			Domain: cupti.DomainDriverAPI,
			CBID:   cupti.CBIDLaunchKernel,
			Module: fn.Module.Lib.Name,
			Kernel: fn.Name,
		})
	} else {
		d.APICalls++
	}
	// Device-side children (dynamic parallelism).
	if fn.children > 0 {
		if !fn.childrenOK {
			return fmt.Errorf("cudasim: kernel %q trapped: device-side child kernel code was removed", fn.Name)
		}
		d.ChildLaunch += int64(fn.children)
		d.Clock.Advance(time.Duration(fn.children) * d.Cost.ChildLaunchCost)
	}
	return nil
}

// AllocGPU allocates device memory on the context (cuMemAlloc).
func (ctx *Context) AllocGPU(n int64) {
	ctx.GPU.Alloc(n)
	ctx.drv.apiCall(&cupti.CallbackData{Domain: cupti.DomainDriverAPI, CBID: cupti.CBIDMemAlloc, Bytes: n})
}

// FreeGPU releases device memory (cuMemFree).
func (ctx *Context) FreeGPU(n int64) {
	ctx.GPU.Free(n)
	ctx.drv.apiCall(&cupti.CallbackData{Domain: cupti.DomainDriverAPI, CBID: cupti.CBIDMemFree, Bytes: n})
}

// AllocCPU allocates host memory (runtime heap, tensors, framework state).
func (d *Driver) AllocCPU(n int64) { d.CPU.Alloc(n) }

// FreeCPU releases host memory.
func (d *Driver) FreeCPU(n int64) { d.CPU.Free(n) }

// UnloadModule releases a module's host residency (cuModuleUnload).
func (ctx *Context) UnloadModule(m *Module) {
	for i, mod := range ctx.modules {
		if mod == m {
			ctx.modules = append(ctx.modules[:i], ctx.modules[i+1:]...)
			break
		}
	}
	ctx.drv.CPU.Free(m.ResidentCPU)
	for _, lc := range m.cubins {
		if lc.loaded {
			ctx.GPU.Free(int64(lc.cb.CodeSize()))
			lc.loaded = false
		}
	}
}

// Modules returns the modules loaded in the context.
func (ctx *Context) Modules() []*Module { return ctx.modules }
