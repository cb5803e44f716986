package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/dserve"
)

var coldOneshot = &workloadDef{
	name: "cold_oneshot",
	why:  "the paper's and the CLI's first debloat: every keyed stage computes and castore is written; memo reads, peers, gateway and HTTP are idle",
	slo:  85 * time.Millisecond,
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
		e.pool = drawDistinct(rng, reductionPool, map[string]bool{})
		for _, d := range e.pool {
			if _, err := e.book.get(d); err != nil {
				return nil, err
			}
		}
		c := &coldInst{e: e, trees: trees, rng: e.rng(2), counters: map[string]int64{}}
		for _, i := range rng.Perm(len(e.pool)) {
			c.order = append(c.order, e.pool[i])
		}
		return c, nil
	},
}

// coldInst runs one closed-loop client; each batch boots a fresh node on an
// empty data dir, submits in process, and tears the node down. Boot and
// teardown are outside the batch latency.
type coldInst struct {
	e        *env
	trees    string
	order    []batchDef
	rng      *rand.Rand
	last     *node // the final batch's node, kept for the image checks
	workersN int
	counters map[string]int64
	stats    castore.Stats
}

func (c *coldInst) run(until time.Time) {
	tr := c.e.tr
	for i := 0; ; i++ {
		d := c.order[i%len(c.order)]
		dir := filepath.Join(c.e.dir, "nodes", fmt.Sprint(i))
		tb := time.Now()
		n, err := bootNode(fmt.Sprintf("cold-%d", i), nodeConfig{dir: dir, ingestRoot: c.trees}, nil)
		if err != nil {
			c.e.rec.add(&outcome{def: d, err: err})
			return
		}
		c.workersN = n.svc.Workers()
		if tr != nil {
			tr.addDetail(span{Name: "node.boot", Src: "client", Track: "client", Start: tb, End: time.Now()})
		}
		o, jobID := c.batch(n, d)
		final := !time.Now().Before(until)
		if o.ok() && (final || c.rng.Intn(8) == 0) {
			fetch := func(lib string) (io.ReadCloser, error) {
				ls, err := n.svc.OpenLibStream(jobID, lib)
				if err != nil {
					return nil, err
				}
				defer ls.Close()
				var buf bytes.Buffer
				_, err = ls.WriteTo(&buf)
				return io.NopCloser(&buf), err
			}
			if final {
				// Kept open: every library of this batch is checked after
				// the timed phase.
				o.fetch, c.last = fetch, n
			} else if ref, err := c.e.book.get(d); err == nil {
				// The node is torn down next, so this seed-chosen image
				// check runs now, off the latency clock and the CPU and
				// allocation totals.
				c.e.rec.offClock(func() {
					if o.checkReport(ref); o.wrong == "" {
						c.e.rec.checkImage(o, ref, ref.libs[c.rng.Intn(len(ref.libs))].Name, fetch)
					}
				})
			}
		}
		c.e.rec.add(o)
		if final {
			return
		}
		c.retire(n, dir)
	}
}

// batch submits one batch to a node and waits for its terminal event.
func (c *coldInst) batch(n *node, d batchDef) (*outcome, string) {
	tr := c.e.tr
	o := &outcome{def: d}
	var jt *jobTrace
	var opts dserve.SubmitOptions
	if tr != nil {
		jt = &jobTrace{done: make(chan struct{})}
		opts.Observer = stageObserver{jt}
	}
	t0 := time.Now()
	job, err := n.svc.SubmitWith(d.ingestRequest(), opts)
	if err != nil {
		o.err = err
		return o, ""
	}
	if tr != nil {
		jt.submit = span{Name: "dserve.submit", Src: "client", Track: n.id, Start: t0, End: time.Now()}
		tr.register(jobKey{n.id, job.ID}, jt)
		tr.follow(n.svc, jt, job.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	ev, err := awaitLocal(ctx, n.svc, job.ID)
	cancel()
	o.lat = time.Since(t0)
	if err == nil && ev.State != dserve.JobDone {
		err = fmt.Errorf("job %s: %s", ev.State, ev.Error)
	}
	if err != nil {
		o.err = err
		return o, job.ID
	}
	res, err := n.svc.ResultOf(job.ID)
	if err != nil {
		o.err = err
		return o, job.ID
	}
	o.sigs, o.fp, o.verified = sigsOf(res), res.InstallFP, res.AllVerified()
	if tr != nil {
		<-jt.done
		tr.addBatch(&batchRec{start: t0, end: t0.Add(o.lat), job: jt})
	}
	return o, job.ID
}

// retire folds a node's counters into the running totals, closes it and
// removes its data dir (harness work, off the CPU and allocation totals).
func (c *coldInst) retire(n *node, dir string) {
	for k, v := range n.svc.Counters.Snapshot() {
		c.counters[k] += v
	}
	st := n.store.Stats()
	c.stats.Puts += st.Puts
	c.stats.Hits += st.Hits
	c.stats.Bytes += st.Bytes
	n.close()
	c.e.rec.offClock(func() { os.RemoveAll(dir) })
}

func (c *coldInst) totals() (map[string]int64, castore.Stats) {
	out := map[string]int64{}
	for k, v := range c.counters {
		out[k] = v
	}
	s := c.stats
	if c.last != nil {
		for k, v := range c.last.svc.Counters.Snapshot() {
			out[k] += v
		}
		st := c.last.store.Stats()
		s.Puts, s.Hits, s.Bytes = s.Puts+st.Puts, s.Hits+st.Hits, s.Bytes+st.Bytes
	}
	return out, s
}

func (c *coldInst) workers() int { return c.workersN }

func (c *coldInst) extra() map[string]float64 { return nil }

func (c *coldInst) close() {
	if c.last != nil {
		c.last.close()
		c.last = nil
	}
}
