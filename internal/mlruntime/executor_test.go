package mlruntime

import (
	"strings"
	"testing"
	"time"

	"negativaml/internal/cudasim"
	"negativaml/internal/dataset"
	"negativaml/internal/elfx"
	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/models"
	"negativaml/internal/trace"
)

var ptInstall *mlframework.Install

func pytorch(t *testing.T) *mlframework.Install {
	t.Helper()
	if ptInstall == nil {
		in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 10})
		if err != nil {
			t.Fatal(err)
		}
		ptInstall = in
	}
	return ptInstall
}

func mobilenetTrain(t *testing.T) Workload {
	return Workload{
		Name:           "PyTorch/Train/MobileNetV2",
		Install:        pytorch(t),
		Graph:          models.MobileNetV2(true, 16),
		Devices:        []gpuarch.Device{gpuarch.T4},
		Mode:           cudasim.EagerLoading,
		Data:           dataset.CIFAR10,
		Epochs:         3,
		PerItemCompute: 200 * time.Microsecond,
	}
}

func TestRunDeterministic(t *testing.T) {
	w := mobilenetTrain(t)
	opt := Options{MaxSteps: 20}
	r1, err := Run(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest != r2.Digest {
		t.Error("digest must be deterministic")
	}
	if r1.ExecTime != r2.ExecTime || r1.PeakCPUBytes != r2.PeakCPUBytes || r1.PeakGPUBytes != r2.PeakGPUBytes {
		t.Error("virtual metrics must be deterministic")
	}
	if r1.Steps != 20 {
		t.Errorf("steps = %d, want 20 (capped)", r1.Steps)
	}
	if r1.Launches == 0 || r1.PeakCPUBytes == 0 || r1.PeakGPUBytes == 0 {
		t.Errorf("empty result: %+v", r1)
	}
}

func TestTrainingUsesMoreKernelsThanInference(t *testing.T) {
	detect := func(g *models.Graph) int {
		var kd *trace.KernelDetector
		w := mobilenetTrain(t)
		w.Graph = g
		_, err := Run(w, Options{
			MaxSteps:    3,
			DriverSetup: func(d *cudasim.Driver) { kd = trace.AttachDetector(d) },
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ks := range kd.AllUsed() {
			n += len(ks)
		}
		return n
	}
	train := detect(models.MobileNetV2(true, 16))
	inf := detect(models.MobileNetV2(false, 1))
	if train <= inf {
		t.Errorf("training should use more kernels: %d vs %d", train, inf)
	}
}

func TestFuncHookSeesInitAndDispatch(t *testing.T) {
	w := mobilenetTrain(t)
	used := map[string]map[string]bool{}
	_, err := Run(w, Options{
		MaxSteps: 2,
		FuncHook: func(lib, fn string) {
			if used[lib] == nil {
				used[lib] = map[string]bool{}
			}
			used[lib][fn] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := used["libtorch_cuda.so"]
	if len(tc) == 0 {
		t.Fatal("no functions recorded for libtorch_cuda.so")
	}
	var haveInit, haveDispatch bool
	for fn := range tc {
		if strings.Contains(fn, "_init_") {
			haveInit = true
		}
		if strings.Contains(fn, "_dispatch_") || strings.Contains(fn, "_wrap_") {
			haveDispatch = true
		}
	}
	if !haveInit || !haveDispatch {
		t.Errorf("want init and dispatch functions, got init=%v dispatch=%v", haveInit, haveDispatch)
	}
	// Conv dispatch lives in cuDNN.
	if len(used["libcudnn_cnn_infer.so.8"]) == 0 {
		t.Error("cuDNN dispatch functions should be called")
	}
}

func TestZeroedBloatFunctionHarmless(t *testing.T) {
	w := mobilenetTrain(t)
	base, err := Run(w, Options{MaxSteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	orig := w.Install.Library("libtorch_cuda.so")
	mod := append([]byte(nil), orig.Data...)
	lib, _ := elfx.Parse("x", mod)
	killed := false
	for _, fn := range lib.Funcs {
		if strings.Contains(fn.Name, "_fn_") { // bloat function
			elfx.ZeroRange(mod, fn.Range)
			killed = true
			break
		}
	}
	if !killed {
		t.Fatal("no bloat function found")
	}
	clone, err := w.Install.CloneWithLibs(map[string][]byte{"libtorch_cuda.so": mod})
	if err != nil {
		t.Fatal(err)
	}
	w2 := w
	w2.Install = clone
	got, err := Run(w2, Options{MaxSteps: 5})
	if err != nil {
		t.Fatalf("zeroing bloat must not break the run: %v", err)
	}
	if got.Digest != base.Digest {
		t.Error("digest changed after removing bloat")
	}
}

func TestZeroedUsedFunctionCrashes(t *testing.T) {
	w := mobilenetTrain(t)
	orig := w.Install.Library("libtorch_cuda.so")
	mod := append([]byte(nil), orig.Data...)
	lib, _ := elfx.Parse("x", mod)
	var killed string
	for _, fn := range lib.Funcs {
		if strings.Contains(fn.Name, "_init_") {
			elfx.ZeroRange(mod, fn.Range)
			killed = fn.Name
			break
		}
	}
	clone, err := w.Install.CloneWithLibs(map[string][]byte{"libtorch_cuda.so": mod})
	if err != nil {
		t.Fatal(err)
	}
	w2 := w
	w2.Install = clone
	_, err = Run(w2, Options{MaxSteps: 2})
	want := "mlruntime: " + w.Name + ": function " + killed + " in libtorch_cuda.so is missing or zeroed (SIGSEGV)"
	if err == nil || err.Error() != want {
		t.Fatalf("zeroing a used init function must fail the run with %q, got %v", want, err)
	}
}

func TestLazyLoadingReducesMemoryAndTime(t *testing.T) {
	w := mobilenetTrain(t)
	w.Graph = models.MobileNetV2(false, 1)
	eager, err := Run(w, Options{MaxSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	w.Mode = cudasim.LazyLoading
	lazy, err := Run(w, Options{MaxSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.PeakCPUBytes >= eager.PeakCPUBytes {
		t.Errorf("lazy CPU %d should be below eager %d", lazy.PeakCPUBytes, eager.PeakCPUBytes)
	}
	if lazy.PeakGPUBytes >= eager.PeakGPUBytes {
		t.Errorf("lazy GPU %d should be below eager %d", lazy.PeakGPUBytes, eager.PeakGPUBytes)
	}
	if lazy.ExecTime >= eager.ExecTime {
		t.Errorf("lazy startup should be faster: %v vs %v", lazy.ExecTime, eager.ExecTime)
	}
	if lazy.Digest != eager.Digest {
		t.Error("loading mode must not change outputs")
	}
}

func TestDistributedInference(t *testing.T) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.VLLM, TailLibs: 5})
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]gpuarch.Device, 8)
	for i := range devices {
		devices[i] = gpuarch.A100
	}
	var kd *trace.KernelDetector
	w := Workload{
		Name:           "vLLM/Inference/Llama2-8xA100",
		Install:        in,
		Graph:          models.LLM(models.Llama2(true, 8)),
		Devices:        devices,
		Mode:           cudasim.EagerLoading,
		Data:           dataset.ManualInput,
		PerItemCompute: 40 * time.Millisecond,
	}
	r, err := Run(w, Options{
		MaxSteps:    4,
		DriverSetup: func(d *cudasim.Driver) { kd = trace.AttachDetector(d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Launches == 0 {
		t.Fatal("no launches")
	}
	ncclKernels := kd.UsedKernels("libnccl.so.2")
	ranks := map[string]bool{}
	for _, k := range ncclKernels {
		if i := strings.LastIndex(k, "_r"); i >= 0 {
			ranks[k[i:]] = true
		}
	}
	if len(ranks) != 8 {
		t.Errorf("expected comm kernels for 8 ranks, got %d (%v)", len(ranks), ncclKernels)
	}
	// Paged attention detected in the vLLM kernel library.
	if len(kd.UsedKernels("libvllm_flash_attn.so")) == 0 {
		t.Error("paged attention kernels should be detected")
	}
}

func TestVLLMPoolDominatesGPU(t *testing.T) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.VLLM, TailLibs: 0})
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{
		Name:           "vLLM/Inference/Llama2",
		Install:        in,
		Graph:          models.LLM(models.Llama2(true, 1)),
		Devices:        []gpuarch.Device{gpuarch.T4},
		Mode:           cudasim.EagerLoading,
		Data:           dataset.ManualInput,
		PerItemCompute: 40 * time.Millisecond,
	}
	r, err := Run(w, Options{MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0.92 * float64(gpuarch.T4.MemBytes))
	if r.PeakGPUBytes < want {
		t.Errorf("vLLM should preallocate ~92%% of GPU memory: %d < %d", r.PeakGPUBytes, want)
	}
}

func TestRunValidation(t *testing.T) {
	w := mobilenetTrain(t)
	w.Devices = nil
	if _, err := Run(w, Options{}); err == nil {
		t.Error("no devices should fail")
	}
	w = mobilenetTrain(t)
	w.Graph = nil
	if _, err := Run(w, Options{}); err == nil {
		t.Error("nil graph should fail")
	}
}
