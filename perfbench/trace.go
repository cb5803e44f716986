package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"negativaml/internal/dserve"
	"negativaml/internal/plan"
)

// The tracer builds per-layer spans from outside the program, through hooks
// the serving plane already exposes: a plan observer on SubmitWith, the
// job event stream, an http.Handler wrapper around every node (client and
// /v1/peer/* routes), and an http.RoundTripper in cluster.Options.Client.
// Spans stay in memory and are written as Chrome trace-event JSON when the
// run ends. A nil *tracer is the untraced run: every hook is skipped.

// span is one timed interval. Batch-scoped spans carry the batch ID; Parent
// is the batch's root span for the ledger layers.
type span struct {
	ID, Parent, Batch int64
	Name, Src, Track  string
	Start, End        time.Time
	Args              map[string]any
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// jobKey names one backend job on one node.
type jobKey struct{ node, id string }

// jobTrace is what the hooks saw of one backend job.
type jobTrace struct {
	mu          sync.Mutex
	submit      span      // the Submit call or the POST handler
	submitted   time.Time // job snapshot
	started     time.Time // job snapshot
	stageEvents []stageEvent
	observed    []span // observer stage spans (real start and end)
	terminal    time.Time
	tapped      bool          // an event tap follows the job
	done        chan struct{} // closed when the tap has seen the end
}

type stageEvent struct {
	name string
	hit  bool
	at   time.Time
}

// stageSpans returns the job's stage-layer spans: the observer's exact
// spans when the job was submitted with one, else intervals between
// consecutive stage events, each charged to the stage whose completion
// closes it. Callers hold j.mu.
func (j *jobTrace) stageSpans() []span {
	if len(j.observed) > 0 {
		return j.observed
	}
	var out []span
	for i, ev := range j.stageEvents {
		start := ev.at
		if i > 0 {
			start = j.stageEvents[i-1].at
		}
		out = append(out, span{Name: "stage." + ev.name, Src: "events", Start: start, End: ev.at, Args: map[string]any{"hit": ev.hit}})
	}
	return out
}

// layers returns the job's ledger layers: job queue, setup, stages, persist.
func (j *jobTrace) layers() []span {
	j.mu.Lock()
	defer j.mu.Unlock()
	stages := j.stageSpans()
	out := []span{}
	if !j.submitted.IsZero() && !j.started.IsZero() {
		out = append(out, span{Name: "dserve.job_queue", Src: "events", Start: j.submitted, End: j.started})
	}
	first, last := j.terminal, j.started
	for _, s := range stages {
		if s.Start.Before(first) {
			first = s.Start
		}
		if s.End.After(last) {
			last = s.End
		}
	}
	if len(stages) > 0 {
		out = append(out, span{Name: "dserve.job_setup", Src: "events", Start: j.started, End: first})
		out = append(out, stages...)
		out = append(out, span{Name: "dserve.persist", Src: "events", Start: last, End: j.terminal})
	}
	if !j.submit.Start.IsZero() {
		out = append(out, j.submit)
	}
	return out
}

// batchRec is one client-visible batch: from submission (or its due time)
// until the client observed the terminal state.
type batchRec struct {
	id         int64
	start, end time.Time
	job        *jobTrace
	pre        []span // client-side layers ahead of the backend job
}

type tracer struct {
	mu      sync.Mutex
	start   time.Time // the timed phase's start, the trace's time origin
	next    int64
	batches []*batchRec
	jobs    map[jobKey]*jobTrace
	detail  []span // peer RPCs, peer handler spans, node boots

	// Handler-wrapper and RoundTripper tallies.
	clientHTTPBytes int64
	peerServeMS     []float64
	rpcMS           []float64
	rpcs            map[string]int64
	wireBytes       int64
	dials           int64
	accepts         map[jobKey]span // front-door submissions by the front door's job ID
}

func newTracer() *tracer {
	return &tracer{jobs: map[jobKey]*jobTrace{}, rpcs: map[string]int64{}, accepts: map[jobKey]span{}}
}

// accepted returns the handler span of a front-door submission.
func (t *tracer) accepted(k jobKey) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.accepts[k]
	return s, ok
}

// begin marks the timed phase's start: batches, tallies and detail spans
// gathered during setup are dropped.
func (t *tracer) begin(at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.start = at
	t.detail, t.batches = nil, nil
	t.clientHTTPBytes, t.wireBytes, t.dials = 0, 0, 0
	t.peerServeMS, t.rpcMS = nil, nil
	t.rpcs = map[string]int64{}
}

func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// job returns (creating) the trace of a backend job.
func (t *tracer) job(k jobKey) *jobTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	j := t.jobs[k]
	if j == nil {
		j = &jobTrace{done: make(chan struct{})}
		t.jobs[k] = j
	}
	return j
}

// register files a job trace created before its ID was known.
func (t *tracer) register(k jobKey, j *jobTrace) {
	t.mu.Lock()
	t.jobs[k] = j
	t.mu.Unlock()
}

// addBatch records a finished client-visible batch.
func (t *tracer) addBatch(b *batchRec) {
	b.id = t.id()
	t.mu.Lock()
	t.batches = append(t.batches, b)
	t.mu.Unlock()
}

func (t *tracer) addDetail(s span) {
	t.mu.Lock()
	t.detail = append(t.detail, s)
	t.mu.Unlock()
}

// stageObserver records exact stage spans for one job.
type stageObserver struct{ j *jobTrace }

func (o stageObserver) StageDone(stage string, hit bool, wall time.Duration) {
	end := time.Now()
	o.j.mu.Lock()
	o.j.observed = append(o.j.observed, span{
		Name: "stage." + stage, Src: "observer", Start: end.Add(-wall), End: end,
		Args: map[string]any{"hit": hit},
	})
	o.j.mu.Unlock()
}

// StageSource tags the span StageDone just appended with its memo tier.
func (o stageObserver) StageSource(stage string, src plan.Source, _ time.Duration) {
	o.j.mu.Lock()
	for i := len(o.j.observed) - 1; i >= 0; i-- {
		if s := &o.j.observed[i]; s.Name == "stage."+stage && s.Args["source"] == nil {
			s.Args["source"] = src.String()
			break
		}
	}
	o.j.mu.Unlock()
}

// eventSource is a job event stream: a service's or the gateway's.
type eventSource interface {
	JobEvents(id string, after int) ([]dserve.JobEvent, bool, <-chan struct{}, error)
}

// jobSource is the slice of a service the event tap reads.
type jobSource interface {
	eventSource
	Job(id string) *dserve.Job
}

// follow taps a backend job's event stream, timestamping each event as it
// is appended, and closes j.done at the terminal event.
func (t *tracer) follow(svc jobSource, j *jobTrace, id string) {
	j.mu.Lock()
	j.tapped = true
	j.mu.Unlock()
	go func() {
		defer close(j.done)
		after := -1
		for {
			evs, done, ch, err := svc.JobEvents(id, after)
			now := time.Now()
			if err != nil {
				return
			}
			j.mu.Lock()
			for _, ev := range evs {
				after = ev.Seq
				switch {
				case ev.Terminal:
					j.terminal = now
				case ev.Type == dserve.EventStage:
					j.stageEvents = append(j.stageEvents, stageEvent{name: ev.Stage, hit: ev.Hit, at: now})
				}
			}
			j.mu.Unlock()
			if done {
				if snap := svc.Job(id); snap != nil {
					j.mu.Lock()
					j.submitted, j.started = snap.Submitted, snap.Started
					j.mu.Unlock()
				}
				return
			}
			<-ch
		}
	}()
}

// ---- http.Handler wrapper ----

// countingWriter counts a response's body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

// wrapHandler wraps a node's handler: peer routes become peer-serve spans,
// client routes count their bytes, and an accepted submission starts the
// event tap on the new job before the client sees the response. svc is nil
// for handlers whose job IDs are not backend jobs (the gateway's).
func (t *tracer) wrapHandler(node string, h http.Handler, svc jobSource) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var in int64
		if r.Body != nil {
			r.Body = countingBody{r.Body, &in}
		}
		cw := &countingWriter{ResponseWriter: w}
		submit := r.Method == http.MethodPost && (r.URL.Path == "/v1/jobs" || r.URL.Path == "/v1/submit")
		var j *jobTrace
		var jobID string
		if submit {
			// The tap must attach before the job's first events fire, so it
			// starts from the wrapper as soon as the accepted body is
			// written, not after the client parses it.
			cw.ResponseWriter = &tapWriter{ResponseWriter: w, onAccepted: func(id string) {
				jobID = id
				if svc != nil {
					j = t.job(jobKey{node, id})
					t.follow(svc, j, id)
				}
			}}
		}
		h.ServeHTTP(cw, r)
		end := time.Now()
		if strings.HasPrefix(r.URL.Path, "/v1/peer/") {
			t.mu.Lock()
			t.peerServeMS = append(t.peerServeMS, msOf(end.Sub(start)))
			t.mu.Unlock()
			t.addDetail(span{Name: "peer.serve " + peerRoute(r.Method, r.URL.Path), Src: "handler", Track: node, Start: start, End: end})
			return
		}
		t.mu.Lock()
		t.clientHTTPBytes += in + cw.n
		t.mu.Unlock()
		if j != nil {
			j.mu.Lock()
			j.submit = span{Name: "dserve.submit", Src: "handler", Track: node, Start: start, End: end, Args: map[string]any{"job": jobID}}
			j.mu.Unlock()
		} else if jobID != "" {
			// A front door's own job (the gateway's): remember when the
			// request arrived, where its queue wait starts.
			t.mu.Lock()
			t.accepts[jobKey{node, jobID}] = span{Name: node + ".submit", Src: "handler", Track: node, Start: start, End: end}
			t.mu.Unlock()
		}
	})
}

// tapWriter spots the job ID in an accepted submission's body.
type tapWriter struct {
	http.ResponseWriter
	status     int
	onAccepted func(id string)
	fired      bool
}

func (w *tapWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *tapWriter) Write(p []byte) (int, error) {
	if w.status == http.StatusAccepted && !w.fired {
		w.fired = true
		var st struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(p, &st) == nil && st.ID != "" {
			w.onAccepted(st.ID)
		}
	}
	return w.ResponseWriter.Write(p)
}

// peerRoute names a /v1/peer/* route for the per-route RPC counts.
func peerRoute(method, path string) string {
	rest := strings.TrimPrefix(path, "/v1/peer/")
	switch {
	case strings.HasPrefix(rest, "objects/"):
		if method == http.MethodPut {
			return "objects_put"
		}
		return "objects_get"
	case rest == "lookup", rest == "lookup-batch", rest == "detect", rest == "compact", rest == "stat":
		return rest
	}
	return "other"
}

// peerRoutes are the per-route RPC metrics the benchmark declares.
var peerRoutes = []string{"lookup-batch", "lookup", "detect", "compact", "objects_get", "objects_put", "stat", "other"}

// ---- http.RoundTripper for cluster.Options.Client ----

type tapTransport struct {
	t    *tracer
	node string
	base http.RoundTripper
}

// peerClient is the instrumented peer client: the cluster's default
// transport settings behind a RoundTripper that counts dials, bytes and
// per-route calls. Untraced runs pass no client, keeping the default.
func (t *tracer) peerClient(node string) *http.Client {
	if t == nil {
		return nil
	}
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &tapTransport{t: t, node: node, base: &http.Transport{
			MaxIdleConns: 256, MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second,
		}},
	}
}

func (tt *tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	route := peerRoute(req.Method, req.URL.Path)
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		ConnectStart: func(string, string) {
			tt.t.mu.Lock()
			tt.t.dials++
			tt.t.mu.Unlock()
		},
	})
	req = req.WithContext(ctx)
	var sent int64
	if req.ContentLength > 0 {
		sent = req.ContentLength
	}
	resp, err := tt.base.RoundTrip(req)
	tt.t.mu.Lock()
	tt.t.rpcs[route]++
	tt.t.wireBytes += sent
	tt.t.mu.Unlock()
	if err != nil {
		tt.t.finishRPC(tt.node, route, start, 0)
		return nil, err
	}
	resp.Body = &rpcBody{ReadCloser: resp.Body, tt: tt, route: route, start: start}
	return resp, nil
}

// rpcBody ends the RPC span when the caller finishes with the response.
type rpcBody struct {
	io.ReadCloser
	tt    *tapTransport
	route string
	start time.Time
	n     int64
	once  sync.Once
}

func (b *rpcBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *rpcBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.tt.t.finishRPC(b.tt.node, b.route, b.start, b.n) })
	return err
}

func (t *tracer) finishRPC(node, route string, start time.Time, received int64) {
	end := time.Now()
	t.mu.Lock()
	t.rpcMS = append(t.rpcMS, msOf(end.Sub(start)))
	t.wireBytes += received
	t.mu.Unlock()
	t.addDetail(span{Name: "peer.rpc " + route, Src: "roundtripper", Track: node, Start: start, End: end})
}

// ---- gateway.Backend wrapper ----

// tracedBackend forwards to the service, adding the job's stage observer
// and event tap, and timestamping every SubmitWith (busy retries included).
type tracedBackend struct {
	*dserve.Service
	t       *tracer
	node    string
	mu      sync.Mutex
	submits int64
}

func (b *tracedBackend) SubmitWith(req dserve.JobRequest, opts dserve.SubmitOptions) (*dserve.Job, error) {
	start := time.Now()
	j := &jobTrace{done: make(chan struct{})}
	opts.Observer = plan.MultiObserver(opts.Observer, stageObserver{j})
	job, err := b.Service.SubmitWith(req, opts)
	end := time.Now()
	b.mu.Lock()
	b.submits++
	b.mu.Unlock()
	if err != nil {
		return nil, err
	}
	j.submit = span{Name: "dserve.submit", Src: "backend", Track: b.node, Start: start, End: end, Args: map[string]any{"job": job.ID}}
	b.t.register(jobKey{b.node, job.ID}, j)
	b.t.follow(b.Service, j, job.ID)
	return job, nil
}

func (b *tracedBackend) count() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.submits
}

// ---- ledger ----

// ledger partitions every batch's wall among its layer spans: each instant
// of the batch is shared equally by the layers active at it, and instants
// no layer covers are the residual. Layer totals plus the residual equal
// the summed batch walls exactly.
type ledger struct {
	wall     time.Duration
	residual time.Duration
	layers   map[string]time.Duration
	batches  int
}

func (t *tracer) ledger() ledger {
	lg := ledger{layers: map[string]time.Duration{}}
	for _, b := range t.batches {
		lg.batches++
		lg.wall += b.end.Sub(b.start)
		spans := append([]span(nil), b.pre...)
		if b.job != nil {
			spans = append(spans, b.job.layers()...)
		}
		type edge struct {
			at    time.Time
			delta int
			name  string
		}
		var edges []edge
		for _, s := range spans {
			st, en := s.Start, s.End
			if st.Before(b.start) {
				st = b.start
			}
			if en.After(b.end) {
				en = b.end
			}
			if !en.After(st) {
				continue
			}
			edges = append(edges, edge{st, 1, s.Name}, edge{en, -1, s.Name})
		}
		sort.Slice(edges, func(i, k int) bool { return edges[i].at.Before(edges[k].at) })
		active := map[string]int{}
		n := 0
		prev := b.start
		for _, e := range edges {
			share(&lg, active, n, e.at.Sub(prev))
			prev = e.at
			active[e.name] += e.delta
			n += e.delta
		}
		share(&lg, active, n, b.end.Sub(prev))
	}
	return lg
}

func share(lg *ledger, active map[string]int, n int, d time.Duration) {
	if d <= 0 {
		return
	}
	if n == 0 {
		lg.residual += d
		return
	}
	for name, c := range active {
		if c > 0 {
			lg.layers[name] += d * time.Duration(c) / time.Duration(n)
		}
	}
}

// ---- Chrome trace-event export ----

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  string         `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it). Each batch gets a track group: lane 0 is the
// root, later lanes hold its layers packed so spans on a lane never overlap.
func (t *tracer) writeChrome(path string) error {
	var evs []traceEvent
	us := func(x time.Time) float64 { return float64(x.Sub(t.start)) / float64(time.Microsecond) }
	emit := func(s span, pid string, tid int64) {
		args := map[string]any{"span": s.ID, "parent": s.Parent, "batch": s.Batch, "source": s.Src}
		for k, v := range s.Args {
			args[k] = v
		}
		evs = append(evs, traceEvent{Name: s.Name, Cat: s.Src, Ph: "X", Ts: us(s.Start), Dur: us(s.End) - us(s.Start), Pid: pid, Tid: tid, Args: args})
	}
	for _, b := range t.batches {
		root := span{ID: t.id(), Batch: b.id, Name: "batch", Src: "client", Start: b.start, End: b.end}
		emit(root, "batches", b.id*64)
		spans := append([]span(nil), b.pre...)
		if b.job != nil {
			spans = append(spans, b.job.layers()...)
		}
		sort.Slice(spans, func(i, k int) bool { return spans[i].Start.Before(spans[k].Start) })
		var laneEnd []time.Time
		for _, s := range spans {
			s.ID, s.Parent, s.Batch = t.id(), root.ID, b.id
			lane := 0
			for lane < len(laneEnd) && laneEnd[lane].After(s.Start) {
				lane++
			}
			if lane == len(laneEnd) {
				laneEnd = append(laneEnd, s.End)
			} else {
				laneEnd[lane] = s.End
			}
			emit(s, "batches", b.id*64+int64(lane)+1)
		}
	}
	for _, s := range t.detail {
		s.ID = t.id()
		emit(s, s.Track, 1)
	}
	out, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// waitJobs blocks until every tapped job has seen its terminal event, so
// the ledger reads complete traces.
func (t *tracer) waitJobs(ctx context.Context) {
	t.mu.Lock()
	jobs := make([]*jobTrace, 0, len(t.jobs))
	for _, j := range t.jobs {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		tapped := j.tapped
		j.mu.Unlock()
		if !tapped {
			continue
		}
		select {
		case <-j.done:
		case <-ctx.Done():
			return
		}
	}
}
