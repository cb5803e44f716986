package mlruntime_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"negativaml/internal/cudasim"
	"negativaml/internal/elfx"
	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
)

// These tests pin what verification detects. Each debloats or damages
// copies of the install's libraries, parses them into a fresh clone of the
// install, and runs workloads against the clone, as the batch service's
// verify path does.

const verifyLib = "libtorch_cuda.so"

func verifyInstall(t *testing.T) *mlframework.Install {
	t.Helper()
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// t4Workload is PyTorch's MobileNetV2 training row on one T4.
func t4Workload(in *mlframework.Install) mlruntime.Workload {
	return goldenSpec{model: "MobileNetV2", train: true, batch: 16, dev: gpuarch.T4, ranks: 1, mode: cudasim.EagerLoading}.workload(in)
}

// runWith runs w on a clone of its install whose library name carries the
// given bytes.
func runWith(t *testing.T, w mlruntime.Workload, name string, data []byte) (*mlruntime.Result, error) {
	t.Helper()
	clone, err := w.Install.CloneWithLibs(map[string][]byte{name: data})
	if err != nil {
		t.Fatal(err)
	}
	w.Install = clone
	return mlruntime.Run(w, mlruntime.Options{MaxSteps: goldenSteps})
}

// funcIndex returns the position of the named function in lib.Funcs.
func funcIndex(t *testing.T, lib *elfx.Library, name string) int {
	t.Helper()
	for i := range lib.Funcs {
		if lib.Funcs[i].Name == name {
			return i
		}
	}
	t.Fatalf("%s: no function %s", lib.Name, name)
	return -1
}

// calledInit returns an init function of verifyLib that every run calls
// and that has a never-called function after it in symbol-table order.
func calledInit(t *testing.T, in *mlframework.Install) (name string, idx, later int) {
	t.Helper()
	lib := in.Library(verifyLib)
	for _, c := range in.InitCalls {
		if c.Lib != verifyLib {
			continue
		}
		i := funcIndex(t, lib, c.Func)
		for j := i + 1; j < len(lib.Funcs); j++ {
			if strings.Contains(lib.Funcs[j].Name, "_fn_") {
				return c.Func, i, j
			}
		}
	}
	t.Fatalf("%s: no init call followed by a bloat function", verifyLib)
	return "", 0, 0
}

// symtabEntry returns the .symtab entry of function fi within data.
func symtabEntry(t *testing.T, lib *elfx.Library, data []byte, fi int) []byte {
	t.Helper()
	const entSize = 24
	sym := lib.Section(".symtab")
	if sym == nil {
		t.Fatal("no .symtab")
	}
	start := lib.Funcs[fi].Range.Start
	for off := sym.Range.Start + entSize; off < sym.Range.End; off += entSize {
		e := data[off : off+entSize]
		if e[4]&0xf == 2 && int64(binary.LittleEndian.Uint64(e[8:])) == start { // STT_FUNC
			return e
		}
	}
	t.Fatalf("no symbol for function %d", fi)
	return nil
}

// TestVerifyDuplicateNameLastWins renames a never-called function after a
// called one to the called name: the liveness of the last definition in
// symbol-table order decides the run.
func TestVerifyDuplicateNameLastWins(t *testing.T) {
	in := verifyInstall(t)
	w := t4Workload(in)
	base, err := mlruntime.Run(w, mlruntime.Options{MaxSteps: goldenSteps})
	if err != nil {
		t.Fatal(err)
	}
	name, i, j := calledInit(t, in)
	lib := in.Library(verifyLib)
	renamed := append([]byte(nil), lib.Data...)
	copy(symtabEntry(t, lib, renamed, j)[0:4], symtabEntry(t, lib, renamed, i)[0:4])
	if dup, err := elfx.Parse(verifyLib, renamed); err != nil {
		t.Fatal(err)
	} else if got := dup.FuncsNamed(name); len(got) != 2 || int(got[0]) != i || int(got[1]) != j {
		t.Fatalf("FuncsNamed(%s) = %v, want [%d %d]", name, got, i, j)
	}

	firstDead := append([]byte(nil), renamed...)
	elfx.ZeroRange(firstDead, lib.Funcs[i].Range)
	if got, err := runWith(t, w, verifyLib, firstDead); err != nil {
		t.Fatalf("a live last definition must serve the call: %v", err)
	} else if got.Digest != base.Digest {
		t.Errorf("digest %x, want %x", got.Digest, base.Digest)
	}

	lastDead := append([]byte(nil), renamed...)
	elfx.ZeroRange(lastDead, lib.Funcs[j].Range)
	want := fmt.Sprintf("mlruntime: %s: function %s in %s is missing or zeroed (SIGSEGV)", w.Name, name, verifyLib)
	if _, err := runWith(t, w, verifyLib, lastDead); err == nil || err.Error() != want {
		t.Fatalf("a zeroed last definition: err = %v, want %s", err, want)
	}
}

func TestVerifyZeroedCubinFailsToResolve(t *testing.T) {
	in := verifyInstall(t)
	w := t4Workload(in)
	op := &w.Graph.Ops[0]
	kname := op.KernelFor(gpuarch.SM75, 0)
	host := in.FamilyLib[op.Family]
	lib := in.Library(host)
	x := lib.Index()
	data := append([]byte(nil), lib.Data...)
	zeroed := 0
	for _, pos := range x.ElementsWithEntry(kname) {
		if e := x.Elements[pos]; e.Arch == gpuarch.SM75 {
			elfx.ZeroRange(data, e.PayloadRange)
			zeroed++
		}
	}
	if zeroed == 0 {
		t.Fatalf("%s: no sm_75 cubin carries %s", host, kname)
	}
	_, err := runWith(t, w, host, data)
	want := fmt.Sprintf("cudasim: %s: no kernel %q for sm_75", host, kname)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to contain %s", err, want)
	}
}

// TestVerifyZeroedChildKernelTraps keeps exactly the kernels the detector
// saw (the exact-kernel ablation), which zeroes the device-only children
// their call graphs launch: resolution succeeds, the launch traps.
func TestVerifyZeroedChildKernelTraps(t *testing.T) {
	in := verifyInstall(t)
	w := t4Workload(in)
	p, err := negativa.DetectUsage(w, goldenSteps)
	if err != nil {
		t.Fatal(err)
	}
	archs := []gpuarch.SM{gpuarch.SM75}
	replaced := make(map[string][]byte)
	for _, name := range in.LibNames {
		lib := in.Library(name)
		exact, err := negativa.LocateGPUExact(lib, p.UsedKernels[name], archs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := negativa.CompactExact(lib, negativa.LocateCPU(lib, p.UsedFuncs[name]), exact, archs)
		if err != nil {
			t.Fatal(err)
		}
		replaced[name] = out
	}
	clone, err := in.CloneWithLibs(replaced)
	if err != nil {
		t.Fatal(err)
	}
	w.Install = clone
	_, err = mlruntime.Run(w, mlruntime.Options{MaxSteps: goldenSteps})
	if err == nil || !strings.Contains(err.Error(), "trapped: device-side child kernel code was removed") {
		t.Fatalf("err = %v, want a device-side trap", err)
	}
}

// TestConcurrentRunsShareClone runs several workloads at once over one
// freshly parsed clone — the verify nodes of one batch — so the clone's
// libraries see concurrent first touches. Each result must match the same
// workload run alone on its own clone. Part of the CI race job.
func TestConcurrentRunsShareClone(t *testing.T) {
	in := verifyInstall(t)
	fresh := func() *mlframework.Install {
		copies := make(map[string][]byte, len(in.LibNames))
		for _, name := range in.LibNames {
			copies[name] = append([]byte(nil), in.Library(name).Data...)
		}
		clone, err := in.CloneWithLibs(copies)
		if err != nil {
			t.Fatal(err)
		}
		return clone
	}
	specs := []goldenSpec{
		{model: "MobileNetV2", train: true, batch: 16, dev: gpuarch.T4, ranks: 1, mode: cudasim.EagerLoading},
		{model: "MobileNetV2", batch: 1, dev: gpuarch.A100, ranks: 8, mode: cudasim.LazyLoading},
		{model: "Transformer", batch: 32, dev: gpuarch.T4, ranks: 1, mode: cudasim.LazyLoading},
		{model: "Transformer", batch: 32, dev: gpuarch.H100, ranks: 1, mode: cudasim.EagerLoading},
	}
	want := make([]string, len(specs))
	for i, s := range specs {
		res, err := mlruntime.Run(s.workload(fresh()), mlruntime.Options{MaxSteps: goldenSteps})
		want[i] = formatResult(s.name(), res, err)
	}

	shared := fresh()
	got := make([]string, 4*len(specs))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := specs[i%len(specs)]
			res, err := mlruntime.Run(s.workload(shared), mlruntime.Options{MaxSteps: goldenSteps})
			got[i] = formatResult(s.name(), res, err)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if w := want[i%len(specs)]; g != w {
			t.Errorf("concurrent run %d = %s, want %s", i, g, w)
		}
	}
}
