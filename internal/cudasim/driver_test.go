package cudasim

import (
	"bytes"
	"testing"
	"time"

	"negativaml/internal/cubin"
	"negativaml/internal/cupti"
	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
)

// buildLib builds a library with one function and cubins for several arches.
// Each arch gets one cubin with kernels "matmul" (entry, launching "child")
// and "child" (device-only), plus a second cubin with kernel "conv".
func buildLib(t *testing.T, name string, arches ...gpuarch.SM) *elfx.Library {
	t.Helper()
	b := elfx.NewBuilder(name)
	b.AddFunction("host_dispatch", 64)
	fb := &fatbin.FatBin{}
	reg := fb.AddRegion()
	for _, a := range arches {
		c1 := cubin.New(a)
		c1.AddKernel(cubin.Kernel{Name: "matmul", Code: bytes.Repeat([]byte{0x90}, 100), Flags: cubin.FlagEntry, Launches: []int{1}})
		c1.AddKernel(cubin.Kernel{Name: "child", Code: bytes.Repeat([]byte{0x90}, 50), Flags: cubin.FlagDeviceOnly})
		blob1, err := c1.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		reg.AddElement(fatbin.Element{Kind: fatbin.KindCubin, Arch: a, Payload: blob1})

		c2 := cubin.New(a)
		c2.AddKernel(cubin.Kernel{Name: "conv", Code: bytes.Repeat([]byte{0x90}, 200), Flags: cubin.FlagEntry})
		blob2, err := c2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		reg.AddElement(fatbin.Element{Kind: fatbin.KindCubin, Arch: a, Payload: blob2})
	}
	fbBytes, err := fb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b.SetFatbin(fbBytes)
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := elfx.Parse(name, data)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestEagerLoadingLoadsMatchingArchOnly(t *testing.T) {
	lib := buildLib(t, "libk.so", gpuarch.SM75, gpuarch.SM80, gpuarch.SM90)
	d := NewDefault()
	ctx := d.NewContext(gpuarch.T4, EagerLoading) // sm_75

	m, err := ctx.LoadModule(lib)
	if err != nil {
		t.Fatal(err)
	}
	// Only the two sm_75 cubins (100+50 and 200 bytes) loaded.
	if got := m.LoadedGPUBytes(); got != 350 {
		t.Errorf("loaded GPU bytes = %d, want 350", got)
	}
	if ctx.GPU.Peak != 350 {
		t.Errorf("GPU peak = %d, want 350", ctx.GPU.Peak)
	}
	if !m.HasKernel("matmul") || !m.HasKernel("conv") || !m.HasKernel("child") {
		t.Error("arch-matching kernels should be indexed")
	}
}

func TestLazyLoadingDefersUntilGetFunction(t *testing.T) {
	lib := buildLib(t, "libk.so", gpuarch.SM75, gpuarch.SM80)
	d := NewDefault()
	ctx := d.NewContext(gpuarch.T4, LazyLoading)

	m, err := ctx.LoadModule(lib)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.LoadedGPUBytes(); got != 0 {
		t.Errorf("lazy load should defer, got %d bytes", got)
	}
	if _, err := m.GetFunction("matmul"); err != nil {
		t.Fatal(err)
	}
	if got := m.LoadedGPUBytes(); got != 150 {
		t.Errorf("after GetFunction(matmul): %d bytes, want 150 (only its cubin)", got)
	}
	if _, err := m.GetFunction("conv"); err != nil {
		t.Fatal(err)
	}
	if got := m.LoadedGPUBytes(); got != 350 {
		t.Errorf("after GetFunction(conv): %d bytes, want 350", got)
	}
}

func TestLazyCPUResidencySkipsFatbin(t *testing.T) {
	lib := buildLib(t, "libk.so", gpuarch.SM75, gpuarch.SM80, gpuarch.SM90, gpuarch.SM86)
	dEager := NewDefault()
	dEager.NewContext(gpuarch.T4, EagerLoading).LoadModule(lib)
	dLazy := NewDefault()
	dLazy.NewContext(gpuarch.T4, LazyLoading).LoadModule(lib)
	if dLazy.CPU.Peak >= dEager.CPU.Peak {
		t.Errorf("lazy CPU residency (%d) should be below eager (%d)", dLazy.CPU.Peak, dEager.CPU.Peak)
	}
}

func TestGetFunctionFiresHookOncePerKernel(t *testing.T) {
	lib := buildLib(t, "libk.so", gpuarch.SM75)
	d := NewDefault()
	ctx := d.NewContext(gpuarch.T4, EagerLoading)
	m, _ := ctx.LoadModule(lib)

	var calls []string
	sub := &cupti.Subscriber{Name: "t"}
	sub.EnableCallback(cupti.CBIDModuleGetFunction)
	d.Hooks.Subscribe(sub, func(data *cupti.CallbackData) { calls = append(calls, data.Kernel) })

	for i := 0; i < 5; i++ {
		fn, err := m.GetFunction("matmul")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Launch(fn); err != nil {
			t.Fatal(err)
		}
	}
	if len(calls) != 1 || calls[0] != "matmul" {
		t.Errorf("cuModuleGetFunction hook fired %d times (%v), want once", len(calls), calls)
	}
	if d.KernelLaunch != 5 {
		t.Errorf("launches = %d, want 5", d.KernelLaunch)
	}
	// Each launch of matmul triggers one device-side child launch.
	if d.ChildLaunch != 5 {
		t.Errorf("child launches = %d, want 5", d.ChildLaunch)
	}
}

func TestGetFunctionErrors(t *testing.T) {
	lib := buildLib(t, "libk.so", gpuarch.SM75)
	d := NewDefault()
	ctx := d.NewContext(gpuarch.T4, EagerLoading)
	m, _ := ctx.LoadModule(lib)

	if _, err := m.GetFunction("nope"); err == nil {
		t.Error("unknown kernel should fail")
	}
	if _, err := m.GetFunction("child"); err == nil {
		t.Error("device-only kernel should not resolve from host")
	}
}

func TestArchMismatchModuleHasNoKernels(t *testing.T) {
	lib := buildLib(t, "libk.so", gpuarch.SM80) // A100-only code
	d := NewDefault()
	ctx := d.NewContext(gpuarch.T4, EagerLoading)
	m, err := ctx.LoadModule(lib)
	if err != nil {
		t.Fatal(err)
	}
	if m.HasKernel("matmul") {
		t.Error("sm_80 cubin must not be visible on sm_75 device")
	}
	if m.LoadedGPUBytes() != 0 {
		t.Error("no GPU bytes should load for mismatched arch")
	}
}

func TestZeroedElementSkipped(t *testing.T) {
	orig := buildLib(t, "libk.so", gpuarch.SM75)
	// Zero the conv cubin payload (element 2) in a copy, then parse it.
	fb, _, err := orig.Fatbin()
	if err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), orig.Data...)
	fbRange, _ := orig.FatbinRange()
	for _, e := range fb.Elements() {
		if e.Index == 2 {
			elfx.ZeroRange(data, fatbin.Range{
				Start: fbRange.Start + e.PayloadRange.Start,
				End:   fbRange.Start + e.PayloadRange.End,
			})
		}
	}
	lib, err := elfx.Parse(orig.Name, data)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDefault()
	ctx := d.NewContext(gpuarch.T4, EagerLoading)
	m, err := ctx.LoadModule(lib)
	if err != nil {
		t.Fatal(err)
	}
	if m.HasKernel("conv") {
		t.Error("zeroed cubin's kernels should be gone")
	}
	if !m.HasKernel("matmul") {
		t.Error("surviving cubin's kernels should remain")
	}
	if got := m.LoadedGPUBytes(); got != 150 {
		t.Errorf("loaded = %d, want 150", got)
	}
}

func TestLaunchBeforeLoadFails(t *testing.T) {
	lib := buildLib(t, "libk.so", gpuarch.SM75)
	d := NewDefault()
	ctx := d.NewContext(gpuarch.T4, LazyLoading)
	m, _ := ctx.LoadModule(lib)
	fn, err := m.GetFunction("matmul")
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: unload to simulate launching with stale handle.
	ctx.UnloadModule(m)
	if err := d.Launch(fn); err == nil {
		t.Error("launch after unload should fail")
	}
}

func TestClockAdvancesOnLoadAndLaunch(t *testing.T) {
	lib := buildLib(t, "libk.so", gpuarch.SM75)
	d := NewDefault()
	ctx := d.NewContext(gpuarch.T4, EagerLoading)
	t0 := d.Clock.Now()
	m, _ := ctx.LoadModule(lib)
	t1 := d.Clock.Now()
	if t1 <= t0 {
		t.Error("module load should cost time")
	}
	fn, _ := m.GetFunction("matmul")
	t2 := d.Clock.Now()
	if t2 <= t1 {
		t.Error("GetFunction should cost time")
	}
	d.Launch(fn)
	if d.Clock.Now() <= t2 {
		t.Error("launch should cost time")
	}
}

func TestDebloatedLibraryLoadsFasterAndSmaller(t *testing.T) {
	lib := buildLib(t, "libk.so", gpuarch.SM75, gpuarch.SM80, gpuarch.SM86, gpuarch.SM90)

	run := func(l *elfx.Library) (time.Duration, int64) {
		d := NewDefault()
		ctx := d.NewContext(gpuarch.T4, EagerLoading)
		if _, err := ctx.LoadModule(l); err != nil {
			t.Fatal(err)
		}
		return d.Clock.Now(), d.CPU.Peak
	}
	origTime, origMem := run(lib)

	// Debloat: zero the payloads of all non-sm_75 elements, keeping region
	// and element headers intact (what the compactor does), in a copy that
	// is parsed afterwards — a library's bytes are immutable once parsed.
	data := append([]byte(nil), lib.Data...)
	fb, _, _ := lib.Fatbin()
	fbRange, _ := lib.FatbinRange()
	for _, e := range fb.Elements() {
		if e.Arch != gpuarch.SM75 {
			elfx.ZeroRange(data, fatbin.Range{
				Start: fbRange.Start + e.PayloadRange.Start,
				End:   fbRange.Start + e.PayloadRange.End,
			})
		}
	}
	dl, err := elfx.Parse(lib.Name, data)
	if err != nil {
		t.Fatal(err)
	}
	debTime, debMem := run(dl)

	if debTime >= origTime {
		t.Errorf("debloated load time %v should be below original %v", debTime, origTime)
	}
	if debMem >= origMem {
		t.Errorf("debloated CPU mem %d should be below original %d", debMem, origMem)
	}
}

func TestMemTrackerAndClock(t *testing.T) {
	var m MemTracker
	m.Alloc(100)
	m.Alloc(50)
	m.Free(120)
	if m.Cur != 30 || m.Peak != 150 {
		t.Errorf("cur=%d peak=%d, want 30/150", m.Cur, m.Peak)
	}
	m.Free(1000)
	if m.Cur != 0 {
		t.Errorf("cur=%d, want clamp to 0", m.Cur)
	}
	var c Clock
	c.Advance(time.Second)
	c.Advance(-time.Hour)
	if c.Now() != time.Second {
		t.Errorf("clock = %v, want 1s", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Error("reset failed")
	}
}

func TestMultiDeviceContexts(t *testing.T) {
	lib := buildLib(t, "libk.so", gpuarch.SM75, gpuarch.SM80)
	d := NewDefault()
	for i := 0; i < 8; i++ {
		ctx := d.NewContext(gpuarch.A100, EagerLoading)
		m, err := ctx.LoadModule(lib)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.LoadedGPUBytes(); got != 350 {
			t.Fatalf("rank %d loaded %d, want 350", i, got)
		}
	}
	if len(d.Contexts()) != 8 {
		t.Errorf("contexts = %d, want 8", len(d.Contexts()))
	}
}

func TestAllocFree(t *testing.T) {
	d := NewDefault()
	ctx := d.NewContext(gpuarch.T4, EagerLoading)
	ctx.AllocGPU(1000)
	ctx.FreeGPU(400)
	if ctx.GPU.Cur != 600 || ctx.GPU.Peak != 1000 {
		t.Errorf("GPU cur=%d peak=%d", ctx.GPU.Cur, ctx.GPU.Peak)
	}
	d.AllocCPU(500)
	d.FreeCPU(100)
	if d.CPU.Cur != 400 {
		t.Errorf("CPU cur=%d", d.CPU.Cur)
	}
}
