// Command perfbench is the repository benchmark. It runs one named
// workload against the serving plane through its public entry points,
// checks every output against a reference computed through the CLI path,
// and prints the end-to-end metrics — or, with -trace 1, the per-layer
// ledger — ending with one JSON line. See README.md.
//
//	go run . -workload warm_mix -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"negativaml/internal/castore"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloadDef is one named workload. setup builds everything the timed
// phase needs; the CPU time it takes is the setup_s metric.
type workloadDef struct {
	name, why string
	// slo is the latency limit within_slo_pct counts against: about one
	// and a half times the workload's whole-run p95, so that the share of
	// batches past it moves when latency grows.
	slo   time.Duration
	setup func(e *env) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// run drives the load until the deadline (batches in flight at the
	// deadline complete) and records every attempt.
	run(until time.Time)
	// totals returns cumulative node counters and castore stats.
	totals() (map[string]int64, castore.Stats)
	// workers is the number of executor slots the batches run on.
	workers() int
	// extra returns workload-specific per-layer values.
	extra() map[string]float64
	close()
}

var workloads = []*workloadDef{coldOneshot, warmMix, clusterPeer, gatewayTenants}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is what one setup of a workload shares with its instance.
type env struct {
	seed   int64
	dir    string
	tr     *tracer
	rec    *recorder
	book   *refBook
	pool   []batchDef // seed-fixed distinct batches behind the reduction metrics
	genMS  []float64
	treeMS []float64
}

func (e *env) rng(stream int64) *rand.Rand { return rand.New(rand.NewSource(e.seed*1000003 + stream)) }

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	workDir    string
	outDir     string
	plantFault bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: chooses batch sets, submission order and tenants")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, ledger and a Chrome trace")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build/work", "scratch directory for trees and castore data dirs")
	fs.StringVar(&o.outDir, "out-dir", ".bench_build/results", "where result records and traces are written")
	fs.BoolVar(&o.plantFault, "plant-fault", false, "self-test: corrupt every fetched image, which must fail the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w := workloadByName(o.workload)
	if w == nil || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s) and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := execute(o, w, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// untracedSetups is how many times an untraced run sets its workload up;
// setup_s is the median. A traced run sets up once for each of its phases.
const untracedSetups = 3

// phase is one measured timed phase.
type phase struct {
	e       *env
	inst    instance
	slo     time.Duration
	length  time.Duration // the requested timed phase
	elapsed time.Duration // until the last batch completed
	cpu     time.Duration
	alloc   uint64
	c0, c1  map[string]int64
	s0, s1  castore.Stats
	extra   map[string]float64
	setupS  []float64 // CPU seconds of each set-up
	setupWS []float64 // wall seconds of each set-up
	okLatMS []float64
	// win holds the completed batches' latencies by quarter of the phase
	// (by completion time); the last quarter takes the drain.
	win      [windows][]float64
	heapMB   []float64 // live heap after each GC cycle of the phase
	ok       int       // completed, verified, matching batches
	batches  int       // non-probe attempts
	attempts int
	failed   int
	wrong    int
	within   int
	notes    []string
}

func execute(o options, w *workloadDef, stdout, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(o.workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	fsName := fsType(base)
	if fsName != "tmpfs" {
		fmt.Fprintf(stderr, "perfbench: WARNING: castore data dirs are on %s, not tmpfs: fsync latency of this disk (and its neighbours) is part of every write-heavy figure\n", fsName)
	}

	var untraced, traced *phase
	if !o.trace {
		untraced, err = measure(o, w, base, false, untracedSetups)
	} else {
		// Tracing overhead needs both sides under the same seed: one
		// untraced phase, then the traced one, each on its own setup.
		if untraced, err = measure(o, w, base, false, 1); err == nil {
			untraced.close()
			traced, err = measure(o, w, base, true, 1)
		}
	}
	if err != nil {
		return nil, err
	}
	report := untraced
	if traced != nil {
		report = traced
	}

	// The workloads are built never to shed or fail, so any failed attempt,
	// not only a wrong output, fails the run.
	correct := untraced.failed == 0 && (traced == nil || traced.failed == 0)
	res := &result{Correct: correct, Attempted: report.attempts, Failed: report.failed, Metrics: map[string]metricValue{}}
	var defs []metricDef
	var vals map[string]float64
	if o.trace {
		defs, vals = perLayer, layerMetrics(traced, untraced)
	} else {
		defs, vals = endToEnd, endToEndMetrics(untraced)
	}
	meta := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"data_dir_fs": fsName, "setups": len(report.setupS), "batches": report.batches, "attempts": report.attempts,
		"latency_samples": len(report.okLatMS), "timed_s": report.elapsed.Seconds(),
	}
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%v | NumCPU=%d GOMAXPROCS=%d %s | data dir fs=%s | attempts=%d batches=%d latency samples=%d\n",
		w.name, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsName,
		report.attempts, report.batches, len(report.okLatMS))
	fmt.Fprintf(stdout, "# why: %s\n", w.why)
	detail := map[string]string{}
	recorded := map[string]metricValue{}
	for _, d := range defs {
		v := vals[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		recorded[d.name] = res.Metrics[d.name]
		detail[d.name] = describe(d, report)
		fmt.Fprintf(stdout, "%-40s %14.4f %-6s %s\n", d.name, v, d.unit, detail[d.name])
	}
	if !o.trace {
		for _, d := range wallClock {
			v := vals[d.name]
			recorded[d.name] = metricValue{Value: v, Unit: d.unit}
			detail[d.name] = describe(d, report)
			fmt.Fprintf(stdout, "%-40s %14.4f %-6s %s (wall clock, not declared)\n", d.name, v, d.unit, detail[d.name])
		}
	}
	fmt.Fprintf(stdout, "failed_pct %.4f %% (%d of %d attempts; %d wrong outputs)\n",
		pct(float64(report.failed), float64(report.attempts)), report.failed, report.attempts, report.wrong)
	for _, n := range report.notes {
		fmt.Fprintf(stdout, "# failure: %s\n", n)
	}
	if o.trace {
		lg := report.e.tr.ledger()
		printLedger(stdout, lg)
		if err := os.MkdirAll(o.outDir, 0o755); err == nil {
			path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
			if err := report.e.tr.writeChrome(path); err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "# chrome trace: %s (open in https://ui.perfetto.dev or chrome://tracing)\n", path)
		}
	}
	report.close()
	if err := os.MkdirAll(o.outDir, 0o755); err == nil {
		rec, _ := json.MarshalIndent(map[string]any{"host": meta, "result": res, "metrics": recorded, "detail": detail}, "", "  ")
		os.WriteFile(filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, boolInt(o.trace))), rec, 0o644)
	}
	return res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// measure sets the workload up `setups` times (keeping the last) and runs
// one timed phase on it. Set-up is timed in process CPU seconds: its wall
// time moves by a third with the host's steal, its CPU time hardly.
func measure(o options, w *workloadDef, base string, traced bool, setups int) (*phase, error) {
	var e *env
	var inst instance
	var setupS, setupWS []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
			e.book.close()
			os.RemoveAll(e.dir)
		}
		dir, err := os.MkdirTemp(base, "setup-")
		if err != nil {
			return nil, err
		}
		e = &env{seed: o.seed, dir: dir, rec: &recorder{plantFault: o.plantFault}}
		if traced {
			e.tr = newTracer()
		}
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		inst, err = w.setup(e)
		if err != nil {
			if e.book != nil {
				e.book.close()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, (cpuTime() - c0).Seconds())
		setupWS = append(setupWS, time.Since(t0).Seconds())
		e.book.idle()
	}
	p := &phase{e: e, inst: inst, slo: w.slo, setupS: setupS, setupWS: setupWS}
	runtime.GC()
	p.c0, p.s0 = inst.totals()
	cpu0, a0 := cpuTime(), totalAlloc()
	t0 := time.Now()
	if e.tr != nil {
		e.tr.begin(t0)
	}
	stop := make(chan struct{})
	sampled := make(chan []float64)
	go func() { sampled <- liveHeapPerGC(stop) }()
	inst.run(t0.Add(time.Duration(o.seconds * float64(time.Second))))
	p.elapsed = time.Since(t0)
	// Harness work the client did between batches is not the program's.
	p.cpu = cpuTime() - cpu0 - e.rec.offCPU
	p.alloc = totalAlloc() - a0 - e.rec.offAlloc
	close(stop)
	if p.heapMB = <-sampled; len(p.heapMB) == 0 {
		p.heapMB = []float64{float64(retainedHeap()) / (1 << 20)}
	}
	p.c1, p.s1 = inst.totals()
	if e.tr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e.tr.waitJobs(ctx)
		cancel()
	}
	p.extra = inst.extra()
	if err := e.rec.verifyAll(e.book, e.rng(7)); err != nil {
		p.close()
		return nil, err
	}
	p.length = time.Duration(o.seconds * float64(time.Second))
	p.tally(t0, p.length)
	if p.ok == 0 {
		p.close()
		return nil, errors.New("no batch completed: " + strings.Join(p.notes, "; "))
	}
	return p, nil
}

// close releases the phase's nodes and reference services.
func (p *phase) close() {
	p.inst.close()
	p.e.book.close()
}

// windows is the number of equal parts a phase is split into for the
// throughput and tail metrics. A stall of a second or two, which this
// machine's neighbours cause now and then, lands in one part; the median
// over the parts does not move with it.
const windows = 4

func (p *phase) tally(t0 time.Time, length time.Duration) {
	for _, o := range p.e.rec.outcomes {
		p.attempts++
		if !o.probe {
			p.batches++
		}
		if o.wrong != "" {
			p.wrong++
		}
		if !o.ok() {
			p.failed++
			if len(p.notes) < 5 {
				msg := o.wrong
				if o.err != nil {
					msg = o.err.Error()
				}
				p.notes = append(p.notes, o.def.key()+": "+msg)
			}
			continue
		}
		if o.probe {
			continue
		}
		p.ok++
		p.okLatMS = append(p.okLatMS, msOf(o.lat))
		w := min(windows-1, max(0, int(o.at.Sub(t0)*windows/length)))
		p.win[w] = append(p.win[w], msOf(o.lat))
		if o.lat <= p.slo {
			p.within++
		}
	}
}

// windowed is the median over the phase's quarters of f, given each
// quarter's latencies and length in seconds (the last quarter runs until
// the final batch completed).
func (p *phase) windowed(f func(lat []float64, seconds float64) float64) float64 {
	quarter := p.length.Seconds() / windows
	var vals []float64
	for i, lat := range p.win {
		s := quarter
		if i == windows-1 {
			s = p.elapsed.Seconds() - quarter*(windows-1)
		}
		vals = append(vals, f(lat, s))
	}
	return median(vals)
}

func endToEndMetrics(p *phase) map[string]float64 {
	mb := float64(1 << 20)
	m := map[string]float64{
		"setup_s":            median(p.setupS),
		"batches_per_s":      p.windowed(func(lat []float64, s float64) float64 { return float64(len(lat)) / s }),
		"batch_p50_ms":       quantile(p.okLatMS, 0.50),
		"batch_p95_ms":       p.windowed(func(lat []float64, _ float64) float64 { return quantile(lat, 0.95) }),
		"verified_pct":       pct(float64(p.attempts-p.failed), float64(p.attempts)),
		"within_slo_pct":     pct(float64(p.within), float64(p.batches)),
		"cpu_ms_per_batch":   per(msOf(p.cpu), p.ok),
		"alloc_mb_per_batch": per(float64(p.alloc)/mb, p.ok),
		"retained_heap_mb":   median(p.heapMB),
	}
	var gpu, gpuAfter, cpu, cpuAfter, file, fileAfter float64
	for _, d := range p.e.pool {
		ref, err := p.e.book.get(d)
		if err != nil {
			continue
		}
		t := ref.totals
		gpu, gpuAfter = gpu+float64(t.GPUSize), gpuAfter+float64(t.GPUSizeAfter)
		cpu, cpuAfter = cpu+float64(t.CPUSize), cpuAfter+float64(t.CPUSizeAfter)
		file, fileAfter = file+float64(t.FileEffective), fileAfter+float64(t.FileEffectiveAfter)
	}
	m["device_code_reduction_pct"] = pct(gpu-gpuAfter, gpu)
	m["host_code_reduction_pct"] = pct(cpu-cpuAfter, cpu)
	m["file_size_reduction_pct"] = pct(file-fileAfter, file)
	return m
}

// describe renders a metric's spread and sample count for the human lines.
func describe(d metricDef, p *phase) string {
	if d.src != "" {
		return "[" + d.src + "]"
	}
	switch d.name {
	case "batch_p50_ms":
		return fmt.Sprintf("(p25 %.3f, p75 %.3f, n=%d)", quantile(p.okLatMS, 0.25), quantile(p.okLatMS, 0.75), len(p.okLatMS))
	case "batch_p95_ms":
		return fmt.Sprintf("(median of the quarters' p95; whole-run p95 %.3f, p99 %.3f, n=%d)", quantile(p.okLatMS, 0.95), quantile(p.okLatMS, 0.99), len(p.okLatMS))
	case "batches_per_s":
		return fmt.Sprintf("(median of the quarters' rates; whole run %d batches in %.2fs)", p.ok, p.elapsed.Seconds())
	case "retained_heap_mb":
		return fmt.Sprintf("(median over %d GC cycles; p25 %.1f, p75 %.1f)", len(p.heapMB), quantile(p.heapMB, 0.25), quantile(p.heapMB, 0.75))
	case "setup_s":
		return fmt.Sprintf("(CPU seconds: p25 %.3f, p75 %.3f, n=%d set-ups; wall median %.3f s)", quantile(p.setupS, 0.25), quantile(p.setupS, 0.75), len(p.setupS), median(p.setupWS))
	case "within_slo_pct":
		return fmt.Sprintf("(limit %v, n=%d)", p.slo, p.batches)
	case "device_code_reduction_pct", "host_code_reduction_pct", "file_size_reduction_pct":
		return fmt.Sprintf("(pool of %d distinct batches)", len(p.e.pool))
	}
	return fmt.Sprintf("(n=%d batches over %.2fs)", p.ok, p.elapsed.Seconds())
}

func printLedger(w io.Writer, lg ledger) {
	names := make([]string, 0, len(lg.layers))
	for n := range lg.layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, k int) bool { return lg.layers[names[i]] > lg.layers[names[k]] })
	wall := float64(lg.wall)
	fmt.Fprintf(w, "# ledger over %d batches: layer self time per batch and share of the batch wall\n", lg.batches)
	var total time.Duration
	for _, n := range names {
		d := lg.layers[n]
		total += d
		fmt.Fprintf(w, "ledger %-28s %10.3f ms/batch %6.2f %%\n", n, msOf(d)/float64(lg.batches), 100*float64(d)/wall)
	}
	fmt.Fprintf(w, "ledger %-28s %10.3f ms/batch %6.2f %%\n", "residual", msOf(lg.residual)/float64(lg.batches), 100*float64(lg.residual)/wall)
	fmt.Fprintf(w, "ledger %-28s %10.3f ms/batch (layers + residual = %.3f)\n", "wall", msOf(lg.wall)/float64(lg.batches), msOf(total+lg.residual)/float64(lg.batches))
}
