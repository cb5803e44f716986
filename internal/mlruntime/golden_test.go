package mlruntime_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"negativaml/internal/cudasim"
	"negativaml/internal/dataset"
	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/models"
	"negativaml/internal/negativa"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/results.golden from the current runtime")

// goldenSteps caps every golden run: coverage and every Result field are
// fixed after the first steps, and the table stays cheap to recompute.
const goldenSteps = 2

// goldenSpec is one cell of the golden table: a Table-1 model row on one
// device, rank count and loading mode.
type goldenSpec struct {
	model string
	train bool
	batch int
	dev   gpuarch.Device
	ranks int
	mode  cudasim.LoadMode
}

func (s goldenSpec) name() string {
	m := "Inference"
	if s.train {
		m = "Train"
	}
	return fmt.Sprintf("%s/%s/b%d/%s/x%d/%s", m, s.model, s.batch, s.dev.Arch, s.ranks, s.mode)
}

func (s goldenSpec) workload(in *mlframework.Install) mlruntime.Workload {
	devs := make([]gpuarch.Device, s.ranks)
	for i := range devs {
		devs[i] = s.dev
	}
	var graph *models.Graph
	var data dataset.Dataset
	switch s.model {
	case "MobileNetV2":
		graph, data = models.MobileNetV2(s.train, s.batch), dataset.CIFAR10
	case "Transformer":
		graph, data = models.Transformer(s.train, s.batch), dataset.Multi30k
	default:
		graph, data = models.LLM(models.Llama2(in.Framework == mlframework.VLLM, s.ranks)), dataset.ManualInput
	}
	return mlruntime.Workload{
		Name:           in.Framework + "/" + s.name(),
		Install:        in,
		Graph:          graph,
		Devices:        devs,
		Mode:           s.mode,
		Data:           data,
		Epochs:         1,
		PerItemCompute: time.Millisecond,
	}
}

// goldenSpecs crosses a framework's Table-1 model rows with every device,
// rank count (1, 8) and loading mode the runtime models.
func goldenSpecs(fw string) []goldenSpec {
	type row struct {
		model string
		train bool
		batch int
	}
	rows := []row{{"MobileNetV2", false, 1}, {"MobileNetV2", true, 16}, {"Transformer", false, 32}, {"Transformer", true, 128}}
	if fw == mlframework.VLLM || fw == mlframework.HFTransformers {
		rows = []row{{"Llama2", false, 1}}
	}
	var out []goldenSpec
	for _, r := range rows {
		for _, dev := range []gpuarch.Device{gpuarch.T4, gpuarch.A100, gpuarch.H100} {
			for _, ranks := range []int{1, 8} {
				for _, mode := range []cudasim.LoadMode{cudasim.EagerLoading, cudasim.LazyLoading} {
					out = append(out, goldenSpec{r.model, r.train, r.batch, dev, ranks, mode})
				}
			}
		}
	}
	return out
}

func formatResult(label string, res *mlruntime.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s\terr=%v\n", label, err)
	}
	return fmt.Sprintf("%s\tdigest=%016x exec=%d cpu=%d gpu=%d steps=%d launches=%d\n",
		label, res.Digest, int64(res.ExecTime), res.PeakCPUBytes, res.PeakGPUBytes, res.Steps, res.Launches)
}

// unionDebloat debloats the install against the union profile of members,
// the batch service's verify clone: what a member outside the union loses
// shows up as a failing run in the table.
func unionDebloat(t *testing.T, in *mlframework.Install, members []mlruntime.Workload) *mlframework.Install {
	t.Helper()
	var profiles []*negativa.Profile
	var devs []gpuarch.Device
	for _, w := range members {
		p, err := negativa.DetectUsage(w, goldenSteps)
		if err != nil {
			t.Fatalf("detect %s: %v", w.Name, err)
		}
		profiles = append(profiles, p)
		devs = append(devs, w.Devices...)
	}
	u := negativa.MergeProfiles(profiles...)
	archs := negativa.DeviceArchs(devs)
	debloated := make(map[string][]byte, len(in.LibNames))
	for _, name := range in.LibNames {
		ld, err := negativa.LocateAndCompactLib(in.Library(name), u.UsedFuncs[name], u.UsedKernels[name], archs)
		if err != nil {
			t.Fatalf("debloat %s: %v", name, err)
		}
		debloated[name] = ld.Report.Debloated()
	}
	clone, err := in.CloneWithLibs(debloated)
	if err != nil {
		t.Fatal(err)
	}
	return clone
}

// TestGoldenResults pins every field of Result — and the error text of the
// runs that fail — for each framework's Table-1 rows × devices × ranks ×
// loading modes, on the original install and on two debloated ones: the
// union of the T4 specs plus one A100 spec, and the first spec alone.
// Verification compares these fields, so any change to how a run derives
// them shows up here. Run with -update to rewrite the table.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden table runs every spec on three installs per framework")
	}
	var buf bytes.Buffer
	for _, fw := range []string{mlframework.PyTorch, mlframework.TensorFlow, mlframework.VLLM, mlframework.HFTransformers} {
		in, err := mlframework.Generate(mlframework.Config{Framework: fw, TailLibs: 2})
		if err != nil {
			t.Fatal(err)
		}
		specs := goldenSpecs(fw)
		var members []mlruntime.Workload
		for _, s := range specs {
			w := s.workload(in)
			res, err := mlruntime.Run(w, mlruntime.Options{MaxSteps: goldenSteps})
			buf.WriteString(formatResult("original\t"+w.Name, res, err))
			if err == nil && (s.dev == gpuarch.T4 || (s.dev == gpuarch.A100 && s.ranks == 1 && s.mode == cudasim.EagerLoading)) {
				members = append(members, w)
			}
		}
		if len(members) == 0 {
			t.Fatalf("%s: no spec runs on the original install", fw)
		}
		for _, d := range []struct {
			label   string
			members []mlruntime.Workload
		}{{"union", members}, {"single", members[:1]}} {
			deb := unionDebloat(t, in, d.members)
			for _, s := range specs {
				w := s.workload(deb)
				res, err := mlruntime.Run(w, mlruntime.Options{MaxSteps: goldenSteps})
				buf.WriteString(formatResult(d.label+"\t"+w.Name, res, err))
			}
		}
	}

	path := filepath.Join("testdata", "results.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("golden line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden table has %d lines, want %d", len(gl), len(wl))
	}
}
