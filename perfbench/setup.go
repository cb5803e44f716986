package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"negativaml/internal/dserve"
	"negativaml/internal/ingest"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
)

// tailLibs sizes every install's dependency tail. Small tails keep one
// batch in the tens of milliseconds, so a run of a few seconds holds the
// 200+ samples a p95 needs.
const tailLibs = 8

// reductionPool is the number of distinct batches, fixed by the seed, whose
// references give the reduction metrics.
const reductionPool = 48

// maxSteps caps detection and verification runs on every request and on
// the reference path alike, so both compute the same profiles.
const maxSteps = 2

// framework is one Table-1 framework with the workload specs its synthetic
// install ships kernels for: Table 1's model/mode/batch rows crossed with
// the devices and loading modes the kernel universe covers.
type framework struct {
	name    string // mlframework identifier, also the tree directory name
	reqName string // JobRequest spelling
	specs   []dserve.WorkloadSpec
}

func cvSpecs() []dserve.WorkloadSpec {
	var out []dserve.WorkloadSpec
	for _, dev := range []string{"T4", "A100", "H100"} {
		out = append(out,
			dserve.WorkloadSpec{Model: "MobileNetV2", Batch: 1, Device: dev},
			dserve.WorkloadSpec{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1, Device: dev},
			dserve.WorkloadSpec{Model: "Transformer", Batch: 32, Device: dev},
			dserve.WorkloadSpec{Model: "Transformer", Train: true, Batch: 128, Epochs: 1, Device: dev},
		)
	}
	return out
}

func llmSpecs() []dserve.WorkloadSpec {
	var out []dserve.WorkloadSpec
	for _, dev := range []string{"T4", "A100", "H100"} {
		for _, gpus := range []int{1, 8} {
			for _, lazy := range []bool{false, true} {
				out = append(out, dserve.WorkloadSpec{Model: "Llama2", Batch: 1, Device: dev, GPUs: gpus, Lazy: lazy})
			}
		}
	}
	return out
}

var frameworks = []framework{
	{name: mlframework.PyTorch, reqName: "pytorch", specs: cvSpecs()},
	{name: mlframework.TensorFlow, reqName: "tensorflow", specs: cvSpecs()},
	{name: mlframework.VLLM, reqName: "vllm", specs: llmSpecs()},
	{name: mlframework.HFTransformers, reqName: "transformers", specs: llmSpecs()},
}

// batchDef is one distinct batch: a framework's install and a set of its
// workload specs (indexes into framework.specs, ascending).
type batchDef struct {
	fw      int
	members []int
}

func (d batchDef) key() string {
	parts := make([]string, len(d.members))
	for i, m := range d.members {
		parts[i] = fmt.Sprint(m)
	}
	return frameworks[d.fw].name + "/" + strings.Join(parts, ",")
}

func (d batchDef) specs() []dserve.WorkloadSpec {
	out := make([]dserve.WorkloadSpec, len(d.members))
	for i, m := range d.members {
		out[i] = frameworks[d.fw].specs[m]
	}
	return out
}

// ingestRequest asks the node to ingest the framework's on-disk tree.
func (d batchDef) ingestRequest() dserve.JobRequest {
	return dserve.JobRequest{IngestDir: frameworks[d.fw].name, Workloads: d.specs(), MaxSteps: maxSteps}
}

// incrementalRequest is the ingest request naming base as the completed
// job whose set this batch extends.
func (d batchDef) incrementalRequest(base string) dserve.JobRequest {
	req := d.ingestRequest()
	req.Base = base
	return req
}

// generatedRequest asks the node for its generated install, the form
// cluster peers can execute detect stages for.
func (d batchDef) generatedRequest() dserve.JobRequest {
	return dserve.JobRequest{Framework: frameworks[d.fw].reqName, TailLibs: tailLibs, Workloads: d.specs(), MaxSteps: maxSteps}
}

// superset returns d plus one spec it lacks (seed-chosen), the shape of an
// incremental re-submit; ok is false when d already holds every spec.
func (d batchDef) superset(rng *rand.Rand) (batchDef, bool) {
	have := map[int]bool{}
	for _, m := range d.members {
		have[m] = true
	}
	var missing []int
	for i := range frameworks[d.fw].specs {
		if !have[i] {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return d, false
	}
	members := append(append([]int(nil), d.members...), missing[rng.Intn(len(missing))])
	sort.Ints(members)
	return batchDef{fw: d.fw, members: members}, true
}

// drawBatch picks k of a framework's specs, preferring the least used so
// far (ties broken at random); slack > 0 widens the choice to the k+slack
// least used, for retries after a duplicate.
func drawBatch(rng *rand.Rand, fw, k, slack int, used []int) batchDef {
	order := rng.Perm(len(frameworks[fw].specs))
	sort.SliceStable(order, func(i, j int) bool { return used[order[i]] < used[order[j]] })
	cand := order[:min(len(order), k+slack)]
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	members := append([]int(nil), cand[:k]...)
	sort.Ints(members)
	return batchDef{fw: fw, members: members}
}

// drawDistinct returns n distinct batches not in seen (adding their keys
// to it). Draws are stratified so that seeds differ in which combinations
// they pick but hardly in how much work their batches carry: every run of
// 12 holds one batch of each framework at each size from 2 to 4 members,
// and each framework's specs are used about equally often. When every
// combination of a framework and size is taken, that slot is skipped.
func drawDistinct(rng *rand.Rand, n int, seen map[string]bool) []batchDef {
	used := make([][]int, len(frameworks))
	for fw := range frameworks {
		used[fw] = make([]int, len(frameworks[fw].specs))
	}
	var out []batchDef
	for i := 0; len(out) < n && i < 64*n; i++ {
		fw, k := i%len(frameworks), 2+(i/len(frameworks))%3
		for slack := 0; slack < 64; slack++ {
			d := drawBatch(rng, fw, k, slack, used[fw])
			if seen[d.key()] {
				continue
			}
			seen[d.key()] = true
			for _, m := range d.members {
				used[fw][m]++
			}
			out = append(out, d)
			break
		}
	}
	return out
}

// libSig is the per-library part of a job report that must equal the
// reference: the fields of dserve's report JSON, so HTTP reports decode
// straight into it and in-process results convert with the same formulas.
type libSig struct {
	Name          string  `json:"name"`
	FileKB        float64 `json:"file_kb"`
	FileAfterKB   float64 `json:"file_after_kb"`
	FileRedPct    float64 `json:"file_red_pct"`
	ResidentKB    float64 `json:"resident_kb"`
	ResidentAfKB  float64 `json:"resident_after_kb"`
	CPURedPct     float64 `json:"cpu_red_pct"`
	GPURedPct     float64 `json:"gpu_red_pct"`
	FuncsKept     int     `json:"funcs_kept"`
	FuncsTotal    int     `json:"funcs_total"`
	ElemsKept     int     `json:"elems_kept"`
	ElemsTotal    int     `json:"elems_total"`
	RemovedArch   int     `json:"removed_arch_mismatch"`
	RemovedUnused int     `json:"removed_no_used_kernel"`
}

func kb(n int64) float64 { return float64(n) / 1024 }

func sigOf(lr *negativa.LibraryReport) libSig {
	return libSig{
		Name: lr.Name, FileKB: kb(lr.FileEffective), FileAfterKB: kb(lr.FileEffectiveAfter),
		FileRedPct: lr.FileReductionPct(), ResidentKB: kb(lr.ResidentBytes), ResidentAfKB: kb(lr.ResidentBytesAfter),
		CPURedPct: lr.CPUReductionPct(), GPURedPct: lr.GPUReductionPct(),
		FuncsKept: lr.FuncKept, FuncsTotal: lr.FuncCount, ElemsKept: lr.ElemKept, ElemsTotal: lr.ElemCount,
		RemovedArch: lr.RemovedArchMismatch, RemovedUnused: lr.RemovedNoUsedKernel,
	}
}

// sigsOf converts a batch result's libraries.
func sigsOf(res *dserve.BatchResult) []libSig {
	out := make([]libSig, len(res.Libs))
	for i, lr := range res.Libs {
		out[i] = sigOf(lr)
	}
	return out
}

// reference is the CLI-path outcome of one distinct batch.
type reference struct {
	fp     string
	libs   []libSig
	images map[string][sha256.Size]byte
	totals negativa.Totals
}

// refBook computes references through the CLI path — DebloatBatch on a
// memory-only service, one per install — and caches them by batch key.
// Reference services and installs are dropped between uses (idle), so
// neither counts toward the measured heap; the next computation reloads
// the installs.
type refBook struct {
	mu       sync.Mutex
	load     func() ([]*mlframework.Install, error)
	installs []*mlframework.Install // nil while idle
	svcs     []*dserve.Service
	refs     map[string]*refSlot
}

type refSlot struct {
	once sync.Once
	ref  *reference
	err  error
}

// newRefBook starts a book on installs; load must return the same installs
// again (by content) after the book has been idle.
func newRefBook(installs []*mlframework.Install, load func() ([]*mlframework.Install, error)) *refBook {
	return &refBook{load: load, installs: installs, svcs: make([]*dserve.Service, len(installs)), refs: map[string]*refSlot{}}
}

// idle closes the reference services and drops the installs; the next
// computation starts fresh.
func (b *refBook) idle() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.svcs {
		if s != nil {
			s.Close()
			b.svcs[i] = nil
		}
	}
	b.installs = nil
}

func (b *refBook) close() { b.idle() }

// service returns the framework's install and reference service, loading
// the installs if the book has been idle.
func (b *refBook) service(fw int) (*mlframework.Install, *dserve.Service, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.installs == nil {
		in, err := b.load()
		if err != nil {
			return nil, nil, err
		}
		b.installs = in
	}
	if b.svcs[fw] == nil {
		b.svcs[fw] = dserve.NewService(dserve.Config{Workers: 1, MaxSteps: maxSteps})
	}
	return b.installs[fw], b.svcs[fw], nil
}

// get returns the batch's reference, computing it on first use.
func (b *refBook) get(d batchDef) (*reference, error) {
	b.mu.Lock()
	slot := b.refs[d.key()]
	if slot == nil {
		slot = &refSlot{}
		b.refs[d.key()] = slot
	}
	b.mu.Unlock()
	slot.once.Do(func() { slot.ref, slot.err = b.compute(d) })
	return slot.ref, slot.err
}

func (b *refBook) compute(d batchDef) (*reference, error) {
	in, svc, err := b.service(d.fw)
	if err != nil {
		return nil, err
	}
	ws := make([]mlruntime.Workload, len(d.members))
	for i, sp := range d.specs() {
		w, err := sp.Workload(in)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	res, err := svc.DebloatBatch(in, ws, dserve.BatchOptions{MaxSteps: maxSteps})
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", d.key(), err)
	}
	if !res.AllVerified() {
		return nil, fmt.Errorf("reference %s does not verify", d.key())
	}
	ref := &reference{fp: res.InstallFP, libs: sigsOf(res), images: map[string][sha256.Size]byte{}, totals: res.Aggregate()}
	for _, lr := range res.Libs {
		h := sha256.New()
		if _, err := lr.Sparse.WriteTo(h); err != nil {
			return nil, err
		}
		var sum [sha256.Size]byte
		copy(sum[:], h.Sum(nil))
		ref.images[lr.Name] = sum
	}
	return ref, nil
}

// generateInstalls builds every framework's install, timing each
// mlframework.Generate call (a simulation cost: a real deployment reads
// its install from disk).
func generateInstalls() ([]*mlframework.Install, []float64, error) {
	var out []*mlframework.Install
	var ms []float64
	for _, fw := range frameworks {
		t0 := time.Now()
		in, err := mlframework.Generate(mlframework.Config{Framework: fw.name, TailLibs: tailLibs})
		if err != nil {
			return nil, nil, err
		}
		ms = append(ms, sinceMS(t0))
		out = append(out, in)
	}
	return out, ms, nil
}

// generated reloads the generated installs for a refBook.
func generated() ([]*mlframework.Install, error) {
	in, _, err := generateInstalls()
	return in, err
}

// ingestedFrom reloads the ingested installs under root for a refBook.
func ingestedFrom(root string) func() ([]*mlframework.Install, error) {
	return func() ([]*mlframework.Install, error) {
		in, _, err := ingestTrees(root)
		return in, err
	}
}

// writeTrees writes every install as an on-disk tree under root/<name>
// and re-reads it through ingest.Tree, the CLI's -ingest path; the
// returned installs are the ingested ones, and treeMS times each
// ingest.Tree + Install.
func writeTrees(root string, installs []*mlframework.Install) ([]*mlframework.Install, []float64, error) {
	for i, in := range installs {
		if err := in.WriteTo(filepath.Join(root, frameworks[i].name)); err != nil {
			return nil, nil, err
		}
	}
	return ingestTrees(root)
}

// ingestTrees reads every framework's tree under root through ingest.Tree.
func ingestTrees(root string) ([]*mlframework.Install, []float64, error) {
	var out []*mlframework.Install
	var ms []float64
	for _, fw := range frameworks {
		dir := filepath.Join(root, fw.name)
		t0 := time.Now()
		res, err := ingest.Tree(dir, ingest.Options{})
		if err != nil {
			return nil, nil, err
		}
		got, err := res.Install()
		if err != nil {
			return nil, nil, err
		}
		ms = append(ms, sinceMS(t0))
		out = append(out, got)
	}
	return out, ms, nil
}
