package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/dserve"
	"negativaml/internal/gateway"
)

// gatewayRate is the open-loop offered load, in submissions per second.
const gatewayRate = 40

var gatewayTenants = &workloadDef{
	name: "gateway_tenants",
	why:  "open-loop load through the tenant gateway: admission, coalescing of cross-tenant duplicates, lane scheduling and quotas dominate; the only workload that measures the gateway",
	slo:  50 * time.Millisecond,
	setup: func(e *env) (instance, error) {
		installs, genMS, err := generateInstalls()
		if err != nil {
			return nil, err
		}
		e.genMS = genMS
		e.book = newRefBook(installs, generated)
		// Traffic cycles through the first half of the reduction pool.
		e.pool = drawDistinct(e.rng(1), reductionPool, map[string]bool{})
		for _, d := range e.pool {
			if _, err := e.book.get(d); err != nil {
				return nil, err
			}
		}
		g := &gatewayInst{e: e, client: newClient(1), keys: map[string]string{}, pool: e.pool[:reductionPool/2]}
		g.order = e.rng(3).Perm(len(g.pool))
		g.node, err = bootNode("gw-node", nodeConfig{dir: filepath.Join(e.dir, "node"), maxJobs: retainedJobs}, nil)
		if err != nil {
			return nil, err
		}
		var backend gateway.Backend = g.node.svc
		if e.tr != nil {
			g.traced = &tracedBackend{Service: g.node.svc, t: e.tr, node: g.node.id}
			backend = g.traced
		}
		tenants := []gateway.TenantConfig{
			{Name: "acme", Keys: []string{"k-acme"}},
			{Name: "beta", Keys: []string{"k-beta"}, Lane: gateway.LaneBulk},
			{Name: "capped", Keys: []string{"k-capped"}, Quota: gateway.QuotaConfig{MaxConcurrent: 4}},
		}
		for _, t := range tenants {
			g.tenants = append(g.tenants, t.Name)
			g.keys[t.Name] = t.Keys[0]
		}
		if g.gw, err = gateway.New(backend, gateway.Config{}, tenants); err != nil {
			g.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			g.close()
			return nil, err
		}
		g.url = "http://" + ln.Addr().String()
		g.srv = &http.Server{Handler: e.tr.wrapHandler("gateway", gateway.NewHandler(g.gw, dserve.NewHandler(g.node.svc)), nil)}
		go g.srv.Serve(ln)
		// Warm-up: every pool batch once, so the timed load meets a warm
		// node and the gateway layers dominate.
		for _, d := range g.pool {
			s := g.send(gwOp{def: d, tenant: "acme"}, time.Now())
			if s.err != nil {
				g.close()
				return nil, s.err
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			_, err := awaitLocal(ctx, tenantView{g.gw, "acme"}, s.id)
			cancel()
			if err != nil {
				g.close()
				return nil, err
			}
		}
		return g, nil
	},
}

// gatewayInst offers open-loop load from one sender goroutine; a second
// goroutine observes completions through gateway.JobEvents, so waiting
// holds no connection.
type gatewayInst struct {
	e       *env
	client  *http.Client
	node    *node
	gw      *gateway.Gateway
	srv     *http.Server
	url     string
	traced  *tracedBackend
	tenants []string
	keys    map[string]string

	pool    []batchDef // the batches the load cycles through
	order   []int      // seeded cycle through the pool
	picks   int
	lagMS   []float64
	queueMS []float64
	c0      map[string]int64
	subs0   int64
}

// gwOp is one scheduled submission.
type gwOp struct {
	def    batchDef
	tenant string
	lane   string // X-Lane override, "" for the tenant's default
	probe  int    // >0: a malformed request of that kind
}

// sent is a submission the sender handed to the collector.
type sent struct {
	op       gwOp
	due      time.Time
	sendAt   time.Time
	accepted time.Time
	id       string
	err      error
}

// probes are the malformed requests and the status the API documents for
// each: a body that is not JSON, an unknown model, an unknown framework
// (400), and a missing API key (401).
var probes = []struct {
	body   string
	noKey  bool
	status int
}{
	{body: `{"framework":`, status: http.StatusBadRequest},
	{body: `{"framework":"pytorch","workloads":[{"model":"ResNet50"}]}`, status: http.StatusBadRequest},
	{body: `{"framework":"jax","workloads":[{"model":"MobileNetV2"}]}`, status: http.StatusBadRequest},
	{body: `{"framework":"pytorch","workloads":[{"model":"MobileNetV2"}]}`, noKey: true, status: http.StatusUnauthorized},
}

func (g *gatewayInst) send(op gwOp, due time.Time) sent {
	s := sent{op: op, due: due}
	var body []byte
	if op.probe > 0 {
		body = []byte(probes[op.probe-1].body)
	} else {
		body, _ = json.Marshal(op.def.generatedRequest())
	}
	req, _ := http.NewRequest(http.MethodPost, g.url+"/v1/jobs", bytes.NewReader(body))
	if op.probe == 0 || !probes[op.probe-1].noKey {
		req.Header.Set("Authorization", "Bearer "+g.keys[op.tenant])
	}
	if op.lane != "" {
		req.Header.Set("X-Lane", op.lane)
	}
	s.sendAt = time.Now()
	resp, err := g.client.Do(req)
	s.accepted = time.Now()
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	b, _ := io.ReadAll(resp.Body)
	switch {
	case op.probe > 0:
		if want := probes[op.probe-1].status; resp.StatusCode != want {
			s.err = fmt.Errorf("malformed request %d answered %d, documented %d", op.probe, resp.StatusCode, want)
		}
	case resp.StatusCode != http.StatusAccepted:
		s.err = &httpStatusError{code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	default:
		if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
			s.err = fmt.Errorf("submit response %q", b)
		}
		s.id = st.ID
	}
	return s
}

// schedule returns tick k's submissions. One tick in ten sends a malformed
// request; the others send the next pool batch of a seeded cycle from a
// seed-chosen tenant, one in five with a lane override, and one in seven
// follows it at once with the same request from another tenant, so the
// pair coalesces. The mix is the same for every seed.
func (g *gatewayInst) schedule(rng *rand.Rand, k int) []gwOp {
	if k%10 == 9 {
		return []gwOp{{tenant: "acme", probe: 1 + (k/10)%len(probes)}}
	}
	op := gwOp{def: g.pool[g.order[g.picks%len(g.order)]], tenant: g.tenants[rng.Intn(len(g.tenants))]}
	g.picks++
	switch k % 10 {
	case 3:
		op.lane = gateway.LaneBulk
	case 6:
		op.lane = gateway.LaneInteractive
	}
	ops := []gwOp{op}
	if k%7 == 2 {
		dup := op
		dup.tenant = g.tenants[(indexOf(g.tenants, op.tenant)+1+rng.Intn(len(g.tenants)-1))%len(g.tenants)]
		ops = append(ops, dup)
	}
	return ops
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func (g *gatewayInst) run(until time.Time) {
	g.c0 = g.gw.Counters.Snapshot()
	if g.traced != nil {
		g.subs0 = g.traced.count()
	}
	rng := g.e.rng(2)
	handoff := make(chan sent, 1024)
	collected := make(chan struct{})
	go func() {
		g.collect(handoff)
		close(collected)
	}()
	t0 := time.Now()
	period := time.Second / gatewayRate
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * period)
		if !due.Before(until) {
			break
		}
		ops := g.schedule(rng, k)
		time.Sleep(time.Until(due))
		g.lagMS = append(g.lagMS, msOf(time.Since(due)))
		for _, op := range ops {
			handoff <- g.send(op, due)
		}
	}
	close(handoff)
	<-collected
}

// pendingJob is an accepted submission awaiting its terminal event.
type pendingJob struct {
	s     sent
	after int
	ch    <-chan struct{}
}

// collect records probes and refusals at once and waits, in one select
// over the accepted jobs' event channels, for their terminal events. Only
// the job whose channel fired is read again, so each wake-up costs the
// same however many jobs are pending; a job pending for a minute fails.
func (g *gatewayInst) collect(in <-chan sent) {
	var pending []*pendingJob
	var done []*outcome
	record := func(o *outcome) {
		g.e.rec.add(o)
		done = append(done, o)
	}
	// poll reads a job's new events; a terminal job is recorded and
	// reported finished, any other re-arms its channel.
	poll := func(p *pendingJob) bool {
		evs, fin, ch, err := g.gw.JobEvents(p.s.op.tenant, p.s.id, p.after)
		if err == nil && !fin {
			for _, ev := range evs {
				p.after = ev.Seq
			}
			p.ch = ch
			return false
		}
		record(g.finish(p.s, evs, err))
		return true
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for in != nil || len(pending) > 0 {
		cases := []reflect.SelectCase{
			{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(in)},
			{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(tick.C)},
		}
		for _, p := range pending {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(p.ch)})
		}
		i, v, ok := reflect.Select(cases)
		switch {
		case i == 0 && !ok:
			in = nil
		case i == 0:
			s := v.Interface().(sent)
			if s.op.probe > 0 || s.err != nil {
				g.e.rec.add(&outcome{def: s.op.def, probe: s.op.probe > 0, err: s.err})
				continue
			}
			if p := (&pendingJob{s: s, after: -1}); !poll(p) {
				pending = append(pending, p)
			}
		case i == 1:
			kept := pending[:0]
			for _, p := range pending {
				if time.Since(p.s.due) > time.Minute {
					record(&outcome{def: p.s.op.def, lat: time.Since(p.s.due), err: errors.New("timed out waiting for the job")})
					continue
				}
				kept = append(kept, p)
			}
			pending = kept
		default:
			if poll(pending[i-2]) {
				pending = append(pending[:i-2], pending[i-1:]...)
			}
		}
	}
	keepFetchers(done, retainedJobs/2)
}

// finish turns a terminal gateway job into an outcome, reading the result
// through the backend job the gateway ran it as.
func (g *gatewayInst) finish(s sent, evs []dserve.JobEvent, err error) *outcome {
	o := &outcome{def: s.op.def, lat: time.Since(s.due)}
	if err == nil {
		for _, ev := range evs {
			if ev.Terminal && ev.State != gateway.JobDone {
				err = fmt.Errorf("job %s: %s", ev.State, ev.Error)
			}
		}
	}
	var dsID string
	if err == nil {
		dsID, err = g.gw.Upstream(s.op.tenant, s.id)
	}
	var res *dserve.BatchResult
	if err == nil {
		res, err = g.node.svc.ResultOf(dsID)
	}
	if err != nil {
		o.err = err
		return o
	}
	o.sigs, o.fp, o.verified = sigsOf(res), res.InstallFP, res.AllVerified()
	tenant, id := s.op.tenant, s.id
	o.fetch = func(lib string) (io.ReadCloser, error) {
		req, _ := http.NewRequest(http.MethodGet, g.url+"/v1/jobs/"+id+"/libs/"+lib, nil)
		req.Header.Set("Authorization", "Bearer "+g.keys[tenant])
		resp, err := g.client.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, &httpStatusError{code: resp.StatusCode}
		}
		return resp.Body, nil
	}
	if tr := g.e.tr; tr != nil {
		j := tr.job(jobKey{g.node.id, dsID})
		j.mu.Lock()
		dispatched := j.submit.Start
		j.mu.Unlock()
		// The queue wait runs from the request's arrival at the gateway
		// handler until the unit's Backend.SubmitWith; a rider coalesced
		// onto an already dispatched unit waits 0.
		arrived := s.sendAt
		pre := []span{{Name: "loadgen.lag", Src: "client", Start: s.due, End: s.sendAt}}
		if h, ok := tr.accepted(jobKey{"gateway", s.id}); ok {
			arrived = h.Start
			pre = append(pre, h)
		}
		pre = append(pre, span{Name: "gateway.queue", Src: "backend", Start: arrived, End: dispatched})
		g.queueMS = append(g.queueMS, max(0, msOf(dispatched.Sub(arrived))))
		tr.addBatch(&batchRec{start: s.due, end: s.due.Add(o.lat), job: j, pre: pre})
	}
	return o
}

func (g *gatewayInst) totals() (map[string]int64, castore.Stats) {
	return counters([]*node{g.node}), storeStats([]*node{g.node})
}

func (g *gatewayInst) workers() int { return g.node.svc.Workers() }

func (g *gatewayInst) extra() map[string]float64 {
	c1 := g.gw.Counters.Snapshot()
	d := func(k string) float64 { return float64(c1[k] - g.c0[k]) }
	batches := 0
	for _, o := range g.e.rec.outcomes {
		if o.ok() && !o.probe {
			batches++
		}
	}
	m := map[string]float64{
		"gateway.coalesce_pct":      pct(d("gateway.coalesced"), d("gateway.admitted")),
		"gateway.shed_pct":          pct(d("gateway.shed"), d("gateway.admitted")+d("gateway.shed")),
		"gateway.queue_wait_ms_p50": median(g.queueMS),
		"loadgen.send_lag_ms_p99":   quantile(g.lagMS, 0.99),
	}
	if g.traced != nil {
		m["gateway.backend_submits_per_batch"] = per(float64(g.traced.count()-g.subs0), batches)
	}
	return m
}

func (g *gatewayInst) close() {
	if g.srv != nil {
		g.srv.Close()
	}
	if g.gw != nil {
		g.gw.Close()
	}
	if g.node != nil {
		g.node.close()
	}
}

// tenantView is one tenant's view of the gateway's event streams.
type tenantView struct {
	gw     *gateway.Gateway
	tenant string
}

func (v tenantView) JobEvents(id string, after int) ([]dserve.JobEvent, bool, <-chan struct{}, error) {
	return v.gw.JobEvents(v.tenant, id, after)
}
