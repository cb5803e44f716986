package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/dserve"
)

var warmMix = &workloadDef{
	name: "warm_mix",
	why:  "a long-lived node over HTTP: unmemoized verify, per-submit ingest, memory and castore memo tiers, the job table and JSON dominate; new sets add castore writes",
	slo:  65 * time.Millisecond,
	setup: func(e *env) (instance, error) {
		installs, genMS, err := generateInstalls()
		if err != nil {
			return nil, err
		}
		trees := filepath.Join(e.dir, "trees")
		ingested, treeMS, err := writeTrees(trees, installs)
		if err != nil {
			return nil, err
		}
		e.genMS, e.treeMS = genMS, treeMS
		e.book = newRefBook(ingested, ingestedFrom(trees))
		rng := e.rng(1)
		seen := map[string]bool{}
		pool := drawDistinct(rng, reductionPool/2, seen)
		w := &warmInst{e: e, client: newClient(2)}
		ops := e.rng(2)
		w.pattern = []int{opExact, opExact, opExact, opExact, opExact, opExact, opExact, opExact, opSuper, opFresh}
		ops.Shuffle(len(w.pattern), func(i, j int) { w.pattern[i], w.pattern[j] = w.pattern[j], w.pattern[i] })
		w.exact = ops.Perm(len(pool))
		for _, d := range pool {
			sup, ok := d.superset(rng)
			if ok && !seen[sup.key()] {
				seen[sup.key()] = true
			} else {
				ok = false
			}
			w.supersets = append(w.supersets, sup)
			w.hasSuper = append(w.hasSuper, ok)
		}
		w.fresh = drawDistinct(rng, 400, seen)
		for _, i := range ops.Perm(len(pool)) {
			if w.hasSuper[i] {
				w.super = append(w.super, i)
			}
		}
		// The reduction metrics cover the pool and its supersets.
		w.pool = pool
		e.pool = append([]batchDef(nil), pool...)
		for i, sup := range w.supersets {
			if w.hasSuper[i] {
				e.pool = append(e.pool, sup)
			}
		}
		for _, d := range e.pool {
			if _, err := e.book.get(d); err != nil {
				return nil, err
			}
		}
		// The memory tier holds about half of the pool's library images,
		// so part of the warm hits restore from castore.
		var working int64
		for _, in := range ingested {
			working += in.TotalFileSize()
		}
		w.node, err = bootNode("warm", nodeConfig{dir: filepath.Join(e.dir, "node"), ingestRoot: trees, cacheBytes: working / 2, maxJobs: retainedJobs, serve: true}, e.tr)
		if err != nil {
			return nil, err
		}
		// Warm-up: every pool batch, each followed by its superset.
		for i, d := range pool {
			o, id := httpBatch(e, w.client, w.node, d, d.ingestRequest(), false)
			if o.ok() && w.hasSuper[i] {
				o, _ = httpBatch(e, w.client, w.node, w.supersets[i], w.supersets[i].incrementalRequest(id), false)
			}
			if !o.ok() {
				w.close()
				return nil, fmt.Errorf("warm-up %s: %v", o.def.key(), o.err)
			}
		}
		return w, nil
	},
}

// retainedJobs bounds each long-lived node's job table. Every completed
// job keeps its batch result (for an ingested tree, its own parsed
// install), so the default of 256 would retain hundreds of megabytes.
const retainedJobs = 32

// warmInst drives one node with two closed-loop HTTP clients over a seeded
// operation sequence: about 8 in 10 exact resubmits of a pool batch, 1 in
// 10 incremental supersets, each submitted right after an exact resubmit
// of its pool batch and naming that job as its base, and 1 in 10 workload
// sets not seen before.
type warmInst struct {
	e         *env
	client    *http.Client
	node      *node
	pool      []batchDef
	supersets []batchDef
	hasSuper  []bool
	fresh     []batchDef

	mu      sync.Mutex
	pattern []int // seed-shuffled cycle of 10 operation kinds
	exact   []int // seed-shuffled pool order for exact resubmits
	super   []int // seed-shuffled pool order for supersets
	n       [3]int
}

// Warm operation kinds.
const (
	opExact = iota
	opSuper
	opFresh
)

// warmOp is one client step: a batch, and optionally the incremental
// superset to submit on top of it once it completes.
type warmOp struct {
	def   batchDef
	super *batchDef
}

// next returns the next operation of the seeded sequence. Kinds follow a
// fixed-mix cycle and pool batches a cycle through a seeded order, so every
// seed submits the same amount of each kind of work.
func (w *warmInst) next() warmOp {
	w.mu.Lock()
	defer w.mu.Unlock()
	kind := w.pattern[(w.n[opExact]+w.n[opSuper]+w.n[opFresh])%len(w.pattern)]
	k := w.n[kind]
	w.n[kind]++
	switch {
	case kind == opSuper && len(w.super) > 0:
		i := w.super[k%len(w.super)]
		return warmOp{def: w.pool[i], super: &w.supersets[i]}
	case kind == opFresh && len(w.fresh) > 0:
		return warmOp{def: w.fresh[k%len(w.fresh)]}
	}
	return warmOp{def: w.pool[w.exact[k%len(w.exact)]]}
}

func (w *warmInst) run(until time.Time) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var done []*outcome
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				op := w.next()
				o, id := httpBatch(w.e, w.client, w.node, op.def, op.def.ingestRequest(), false)
				outs := []*outcome{o}
				if op.super != nil && o.ok() {
					so, _ := httpBatch(w.e, w.client, w.node, *op.super, op.super.incrementalRequest(id), false)
					outs = append(outs, so)
				}
				mu.Lock()
				for _, o := range outs {
					w.e.rec.add(o)
					done = append(done, o)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	keepFetchers(done, retainedJobs/2)
}

// httpBatch submits batch d as req over HTTP, waits for its terminal event
// — by long-polling the job's event stream, or with inProcess on the node's
// JobEvents channel — and fetches its report.
func httpBatch(e *env, c *http.Client, n *node, d batchDef, req dserve.JobRequest, inProcess bool) (*outcome, string) {
	o := &outcome{def: d}
	t0 := time.Now()
	id, err := submitHTTP(c, n.url, req)
	switch {
	case err != nil:
	case inProcess:
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		var ev dserve.JobEvent
		if ev, err = awaitLocal(ctx, n.svc, id); err == nil && ev.State != dserve.JobDone {
			err = fmt.Errorf("job %s: %s", ev.State, ev.Error)
		}
		cancel()
	default:
		_, err = awaitHTTP(c, n.url, id, t0.Add(60*time.Second))
	}
	o.lat = time.Since(t0)
	if err != nil {
		o.err = err
		return o, id
	}
	if tr := e.tr; tr != nil {
		j := tr.job(jobKey{n.id, id})
		tr.addBatch(&batchRec{start: t0, end: t0.Add(o.lat), job: j})
	}
	rep, err := fetchReport(c, n.url, id)
	if err != nil {
		o.err = err
		return o, id
	}
	o.sigs, o.fp, o.verified = rep.Libs, rep.InstallFP, rep.verified()
	o.fetch = func(lib string) (io.ReadCloser, error) {
		resp, err := c.Get(n.url + "/v1/jobs/" + id + "/libs/" + lib)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, &httpStatusError{code: resp.StatusCode}
		}
		return resp.Body, nil
	}
	return o, id
}

// keepFetchers leaves image fetchers only on the newest n outcomes: older
// jobs may have been evicted from the node's job table.
func keepFetchers(outs []*outcome, n int) {
	for i := 0; i < len(outs)-n; i++ {
		outs[i].fetch = nil
	}
}

func (w *warmInst) totals() (map[string]int64, castore.Stats) {
	return counters([]*node{w.node}), storeStats([]*node{w.node})
}

func (w *warmInst) workers() int { return w.node.svc.Workers() }

func (w *warmInst) extra() map[string]float64 { return nil }

func (w *warmInst) close() {
	if w.node != nil {
		w.node.close()
	}
}
