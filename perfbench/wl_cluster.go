package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"negativaml/internal/castore"
)

var clusterPeer = &workloadDef{
	name: "cluster_peer",
	why:  "a 3-node ring: each new batch is ring-cold on its home node (remote executions, replication) and peer-warm on the other two (batched lookups, hedged reads)",
	slo:  70 * time.Millisecond,
	setup: func(e *env) (instance, error) {
		installs, genMS, err := generateInstalls()
		if err != nil {
			return nil, err
		}
		e.genMS = genMS
		e.book = newRefBook(installs, generated)
		rng := e.rng(1)
		c := &clusterInst{e: e, client: newClient(2)}
		c.seq = drawDistinct(rng, 2000, map[string]bool{})
		e.pool = c.seq[:reductionPool]
		for _, d := range e.pool {
			if _, err := e.book.get(d); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("n%d", i)
			n, err := bootNode(id, nodeConfig{dir: filepath.Join(e.dir, id), cacheBytes: clusterCacheBytes, maxJobs: retainedJobs, serve: true}, e.tr)
			if err != nil {
				c.close()
				return nil, err
			}
			c.nodes = append(c.nodes, n)
		}
		attachRing(c.nodes, e.tr)
		// Every node generates every install before the timed phase: one
		// single-member batch per framework (batches in the sequence have
		// 2-4 members, so none of them is warmed by this).
		for _, n := range c.nodes {
			for fw := range frameworks {
				d := batchDef{fw: fw, members: []int{0}}
				if o, _ := httpBatch(e, c.client, n, d, d.generatedRequest(), true); !o.ok() {
					c.close()
					return nil, fmt.Errorf("warm-up %s on %s: %v", d.key(), n.id, o.err)
				}
			}
		}
		return c, nil
	},
}

// clusterCacheBytes sizes each node's memory tier so that it fills early
// in the run: the retained heap then reads the same at any run length.
const clusterCacheBytes = 16 << 20

// clusterInst drives the ring with two closed-loop clients that submit and
// fetch reports over HTTP and wait on the node's JobEvents channel (so no
// event polling competes with the three nodes for the two CPUs). Batch k of
// the seeded sequence goes to node k mod 3 first, then to the other two.
// One client left the CPUs idle about half the time, waiting on peer round
// trips, so its throughput followed the host's scheduling stalls.
type clusterInst struct {
	e      *env
	client *http.Client
	nodes  []*node
	seq    []batchDef
}

func (c *clusterInst) run(until time.Time) {
	var mu sync.Mutex
	var done []*outcome
	next := 0
	var wg sync.WaitGroup
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				d := c.seq[k%len(c.seq)]
				for r := 0; r < len(c.nodes); r++ {
					o, _ := httpBatch(c.e, c.client, c.nodes[(k+r)%len(c.nodes)], d, d.generatedRequest(), true)
					c.e.rec.add(o)
					mu.Lock()
					done = append(done, o)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	keepFetchers(done, retainedJobs/2)
}

func (c *clusterInst) totals() (map[string]int64, castore.Stats) {
	return counters(c.nodes), storeStats(c.nodes)
}

func (c *clusterInst) workers() int {
	n := 0
	for _, nd := range c.nodes {
		n += nd.svc.Workers()
	}
	return n
}

func (c *clusterInst) extra() map[string]float64 { return nil }

func (c *clusterInst) close() {
	for _, n := range c.nodes {
		n.close()
	}
}
