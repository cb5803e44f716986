package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDeclaredMetricsMatchBenchmarkJSON checks both directions: every
// metric the benchmark emits is declared with the same unit and direction,
// and every declared metric and workload exists here.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark emits %s %s %s", i, got.Name, got.Unit, got.Better, d.name, d.unit, d.better)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := f.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark emits %s %s %s", i, got.Name, got.Unit, got.Better, d.name, d.unit, d.better)
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %v", names, workloadNames())
	}
}

// runOnce runs the benchmark in process for about a second and decodes
// its last output line.
func runOnce(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "-seconds", "1", "-work-dir", t.TempDir(), "-out-dir", t.TempDir())
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q is not a result (stderr %s)", args, lines[len(lines)-1], errb.String())
	}
	return code, res, out.String()
}

// checkEmitted asserts every declared metric appears once, with its unit,
// in the JSON result and once in the human-readable lines.
func checkEmitted(t *testing.T, wl string, defs []metricDef, res result, text string) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", wl, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s emitted as %+v, want unit %s", wl, d.name, m, d.unit)
		}
		n := 0
		for _, line := range strings.Split(text, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == d.name && f[2] == d.unit {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: metric %s printed %d times with unit %s", wl, d.name, n, d.unit)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, res, text := runOnce(t, "-workload", w.name, "-seed", "1")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: exit %d, %+v\n%s", code, res, text)
			}
			checkEmitted(t, w.name, endToEnd, res, text)
			for _, d := range wallClock {
				if n := strings.Count(text, "\n"+d.name+" "); n != 1 {
					t.Errorf("%s: wall-clock metric %s printed %d times", w.name, d.name, n)
				}
			}
			for _, name := range []string{"setup_s", "cpu_ms_per_batch", "verified_pct"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v", w.name, name, res.Metrics[name].Value)
				}
			}
			code, res, text = runOnce(t, "-workload", w.name, "-seed", "1", "-trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("traced run: exit %d, %+v\n%s", code, res, text)
			}
			checkEmitted(t, w.name, perLayer, res, text)
			if !strings.Contains(text, "ledger residual") {
				t.Errorf("%s: traced run printed no ledger", w.name)
			}
		})
	}
}

// TestPlantedWrongOutputFails flips a byte of every fetched image: the
// byte comparison against the reference must count the batch as failed and
// the run must exit non-zero.
func TestPlantedWrongOutputFails(t *testing.T) {
	code, res, text := runOnce(t, "-workload", "warm_mix", "-seed", "2", "-plant-fault")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("planted fault went unnoticed: exit %d, %+v\n%s", code, res, text)
	}
	if !strings.Contains(text, "image differs from the reference") {
		t.Errorf("failure not attributed to the image comparison:\n%s", text)
	}
}

// TestLedgerPartitionsTheWall checks the ledger arithmetic on a synthetic
// batch: overlapping layers share their common time, and the uncovered
// part is the residual.
func TestLedgerPartitionsTheWall(t *testing.T) {
	tr := newTracer()
	t0 := tr.start
	at := func(ms int) time.Time { return t0.Add(msDur(ms)) }
	tr.batches = []*batchRec{{start: at(0), end: at(100), pre: []span{
		{Name: "a", Start: at(10), End: at(50)},
		{Name: "b", Start: at(30), End: at(70)},
		{Name: "c", Start: at(90), End: at(130)}, // clipped at the wall's end
	}}}
	lg := tr.ledger()
	want := map[string]int{"a": 30, "b": 30, "c": 10}
	for name, ms := range want {
		if got := lg.layers[name]; got != msDur(ms) {
			t.Errorf("layer %s = %v, want %dms", name, got, ms)
		}
	}
	if lg.residual != msDur(30) || lg.wall != msDur(100) {
		t.Errorf("residual %v wall %v, want 30ms and 100ms", lg.residual, lg.wall)
	}
}

func msDur(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// TestEverySpecDebloats checks that every workload spec the benchmark can
// draw is valid for its framework's install: alone, it debloats and
// verifies through the reference path.
func TestEverySpecDebloats(t *testing.T) {
	if testing.Short() {
		t.Skip("debloats every spec")
	}
	installs, _, err := generateInstalls()
	if err != nil {
		t.Fatal(err)
	}
	book := newRefBook(installs, generated)
	defer book.close()
	for fw := range frameworks {
		for i := range frameworks[fw].specs {
			if _, err := book.get(batchDef{fw: fw, members: []int{i}}); err != nil {
				t.Errorf("%s spec %d %+v: %v", frameworks[fw].name, i, frameworks[fw].specs[i], err)
			}
		}
	}
}

// TestIdleBookReloadsSameReferences checks that a book which dropped its
// installs (as it does before every timed phase) reloads installs that
// give the same references.
func TestIdleBookReloadsSameReferences(t *testing.T) {
	installs, _, err := generateInstalls()
	if err != nil {
		t.Fatal(err)
	}
	d := batchDef{fw: 0, members: []int{0, 2}}
	held := newRefBook(installs, generated)
	defer held.close()
	want, err := held.get(d)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := newRefBook(installs, generated)
	reloaded.idle()
	defer reloaded.close()
	got, err := reloaded.get(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.fp != want.fp || len(got.images) != len(want.images) {
		t.Fatalf("reloaded reference %.12s with %d images, held %.12s with %d", got.fp, len(got.images), want.fp, len(want.images))
	}
	for lib, sum := range want.images {
		if got.images[lib] != sum {
			t.Errorf("library %s: reloaded image differs", lib)
		}
	}
}

// TestClientConnectionCap drives three servers from two goroutines, the
// load generator's shape, and checks that the client never holds more than
// two connections open at once.
func TestClientConnectionCap(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(time.Millisecond)
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	c := newClient(2)
	tr := c.Transport.(*http.Transport)
	dial := tr.DialContext
	var mu sync.Mutex
	open, peak := 0, 0
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		open++
		peak = max(peak, open)
		mu.Unlock()
		return &countedConn{Conn: conn, closed: func() { mu.Lock(); open--; mu.Unlock() }}, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if err := doJSON(c, http.MethodGet, urls[(g+i)%len(urls)], nil, nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if peak > 2 {
		t.Fatalf("load generator held %d connections open at once, want at most 2", peak)
	}
}

type countedConn struct {
	net.Conn
	once   sync.Once
	closed func()
}

func (c *countedConn) Close() error {
	c.once.Do(c.closed)
	return c.Conn.Close()
}
