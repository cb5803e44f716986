package dserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"negativaml/internal/elfx"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// Job tracks one submitted batch through the service. Accessors return
// snapshots; the Result pointer is immutable once the job is done.
type Job struct {
	ID  string
	Req JobRequest

	State     string
	Err       string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	// StagesDone counts completed plan nodes of the running batch;
	// StagesTotal is fixed once the stage graph is planned. Together they
	// derive the monotone progress fraction the status endpoint reports.
	StagesDone  int
	StagesTotal int

	Result *BatchResult

	// events is the job's live progress stream (state transitions plus one
	// event per completed stage); subscribers attach via Service.JobEvents.
	events *EventLog
	// opts carries the submitter's hooks (extra stage observer, completion
	// callback) into the async run.
	opts SubmitOptions

	// manifest is the durable form of a persisted job; for a job restored
	// from the store it stands in for Result until first use materializes
	// it (see Service.ResultOf).
	manifest *jobManifest
	// refs are the store objects this job retains; released when the job
	// is evicted.
	refs []storeRef
	// pins counts in-flight readers (an open fetch-library stream, a
	// materialization in progress). A pinned job is never evicted, so
	// eviction cannot release store objects out from under a response.
	pins int
}

// ErrBusy is returned by Submit when the service already holds its maximum
// number of in-flight (queued or running) jobs; the HTTP layer maps it to
// 503 so clients back off instead of growing the job table unboundedly.
var ErrBusy = errors.New("dserve: too many in-flight jobs, retry later")

// Incremental-submit errors; the HTTP layer maps ErrUnknownBase to 404 and
// ErrBaseNotReady to 409.
var (
	ErrUnknownBase  = errors.New("dserve: unknown base job")
	ErrBaseNotReady = errors.New("dserve: base job has not completed")
)

// SubmitOptions carry a submitter's hooks into a job's async run. The
// gateway uses them to charge per-tenant stage-seconds (Observer) and to
// learn about completion without polling (OnDone).
type SubmitOptions struct {
	// Observer, when non-nil, additionally receives the batch's per-stage
	// outcomes (the service's metrics observer and the job's progress
	// tracking always run). Must be safe for concurrent use.
	Observer plan.Observer
	// OnDone, when non-nil, is called once with a terminal-state snapshot
	// of the job after it finishes (done or failed), from the job's own
	// goroutine with no service locks held.
	OnDone func(*Job)
}

// Submit validates the request, queues a job, and runs it asynchronously on
// a service goroutine. The returned snapshot reflects the queued state;
// poll Job(id) for progress. Returns ErrBusy when MaxInFlight jobs are
// already queued or running — the one retention surface MaxJobs pruning
// cannot touch (it only evicts terminal jobs).
func (s *Service) Submit(req JobRequest) (*Job, error) {
	return s.SubmitWith(req, SubmitOptions{})
}

// SubmitWith is Submit with per-job hooks attached.
func (s *Service) SubmitWith(req JobRequest, opts SubmitOptions) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("dserve: service is shut down")
	}
	if req.Base != "" {
		if err := s.checkBaseLocked(req); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	inflight := 0
	for _, j := range s.jobs {
		if j.State == JobQueued || j.State == JobRunning {
			inflight++
		}
	}
	if inflight >= s.cfg.MaxInFlight {
		s.mu.Unlock()
		s.Counters.Add("jobs.rejected_busy", 1)
		return nil, ErrBusy
	}
	s.seq++
	job := &Job{
		ID:        fmt.Sprintf("job-%04d", s.seq),
		Req:       req,
		State:     JobQueued,
		Submitted: time.Now(),
		events:    NewEventLog(),
		opts:      opts,
	}
	job.events.Append(JobEvent{Type: EventState, State: JobQueued})
	if req.Base != "" {
		// Pin the base while this job exists in a non-terminal state:
		// checkBaseLocked just proved it is present and done, and the pin
		// closes the window in which eviction could release it (and its
		// store objects) between acceptance and the async run. run()
		// releases it on completion.
		s.jobs[req.Base].pins++
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.wg.Add(1)
	snap := *job
	s.mu.Unlock()

	s.Counters.Add("jobs.submitted", 1)
	go s.run(job)
	return &snap, nil
}

// progressObserver mirrors one job's completed plan nodes into its stage
// counters and event stream.
type progressObserver struct {
	s   *Service
	job *Job
}

func (o progressObserver) StageDone(stage string, hit bool, _ time.Duration) {
	// The event is appended while still holding s.mu so two concurrently
	// completing stages cannot publish their counters out of order (the
	// stream's documented invariant is that StagesDone never decreases).
	// EventLog.Append takes only its own lock and never blocks.
	o.s.mu.Lock()
	defer o.s.mu.Unlock()
	o.job.StagesDone++
	o.job.events.Append(JobEvent{
		Type: EventStage, Stage: stage, Hit: hit,
		StagesDone: o.job.StagesDone, StagesTotal: o.job.StagesTotal,
	})
}

func (s *Service) run(job *Job) {
	defer s.wg.Done()
	s.mu.Lock()
	job.State = JobRunning
	job.Started = time.Now()
	s.mu.Unlock()
	job.events.Append(JobEvent{Type: EventState, State: JobRunning})

	obs := plan.MultiObserver(progressObserver{s: s, job: job}, job.opts.Observer)
	onPlanned := func(total int) {
		s.mu.Lock()
		job.StagesTotal = total
		s.mu.Unlock()
	}
	res, err := s.runBatch(job.Req, obs, onPlanned)

	// Persist before publishing the terminal state (file I/O stays outside
	// s.mu): once the job reads as done, its manifest and pinned objects
	// are already durable.
	finished := time.Now()
	var manifest *jobManifest
	var refs []storeRef
	if s.store != nil {
		if err == nil {
			manifest, refs = s.persistJob(job, res, finished)
		} else {
			manifest, refs = s.persistFailedJob(job, err, finished)
		}
		s.Timings.Observe("job.persist", time.Since(finished))
	}

	s.mu.Lock()
	job.Finished = finished
	job.manifest = manifest
	job.refs = refs
	if err != nil {
		job.State = JobFailed
		job.Err = err.Error()
	} else {
		job.State = JobDone
		job.Result = res
	}
	if job.Req.Base != "" {
		// Release the base pin Submit took; the base cannot have been
		// evicted while pinned, but a restart-restored table makes the
		// nil check cheap insurance.
		if bj := s.jobs[job.Req.Base]; bj != nil {
			bj.pins--
		}
	}
	snap := *job
	s.pruneJobsLocked()
	s.mu.Unlock()

	// Terminal event last: subscribers that see it know the stream is
	// complete and every stage event precedes it. A done job's event also
	// carries its retained result bytes, so consumers (the gateway's
	// result-byte accounting) need no post-terminal job lookup that could
	// race MaxJobs pruning.
	term := JobEvent{
		Type: EventState, State: snap.State, Error: snap.Err, Terminal: true,
		StagesDone: snap.StagesDone, StagesTotal: snap.StagesTotal,
	}
	if snap.State == JobDone {
		term.ResultBytes = res.RetainedBytes()
	}
	job.events.Append(term)
	// job.wall runs to the terminal event, persistence included: it is
	// what a client waits from start to a final answer.
	s.Timings.Observe("job.wall", time.Since(snap.Started))

	if err != nil {
		s.Counters.Add("jobs.failed", 1)
	} else {
		s.Counters.Add("jobs.completed", 1)
	}
	if job.opts.OnDone != nil {
		job.opts.OnDone(&snap)
	}
}

// pruneJobsLocked evicts the oldest terminal jobs beyond MaxJobs — each
// completed job pins its compacted library images, so retention must be
// bounded. Queued, running, and pinned jobs are never evicted: a pin marks
// an in-flight reader (an open fetch-library stream), and evicting under it
// would release the store objects the response is still being served from.
// Evicting a persisted job releases its store references and deletes its
// manifest, so a future boot does not resurrect it. Callers hold s.mu.
func (s *Service) pruneJobsLocked() {
	var terminal []string
	for _, id := range s.order {
		st := s.jobs[id].State
		if st == JobDone || st == JobFailed {
			terminal = append(terminal, id)
		}
	}
	excess := len(terminal) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	// The newest MaxJobs terminal jobs always stay; of the older ones,
	// pinned jobs are over-retained until their streams close (the release
	// re-runs this prune).
	evict := map[string]bool{}
	for _, id := range terminal[:excess] {
		if s.jobs[id].pins == 0 {
			evict[id] = true
		}
	}
	if len(evict) == 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if evict[id] {
			s.releaseJobLocked(s.jobs[id])
			delete(s.jobs, id)
			s.Counters.Add("jobs.evicted", 1)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// releaseJobLocked drops the job's store references and deletes its
// manifest. Callers hold s.mu.
func (s *Service) releaseJobLocked(job *Job) {
	if s.store == nil {
		return
	}
	for _, ref := range job.refs {
		s.store.Release(ref.Kind, ref.Key)
	}
	job.refs = nil
	if job.manifest != nil {
		s.store.Delete(kindJob, job.ID)
		job.manifest = nil
	}
}

// checkBaseLocked validates an incremental request's base reference at
// submission time: the base job must exist, be done, and agree on
// everything that shapes the batch (the workload superset check runs in
// DebloatBatch, identity-compared, once the install is materialized).
// Callers hold s.mu.
func (s *Service) checkBaseLocked(req JobRequest) error {
	base, ok := s.jobs[req.Base]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBase, req.Base)
	}
	if base.State != JobDone {
		return fmt.Errorf("%w: %s is %s", ErrBaseNotReady, req.Base, base.State)
	}
	if base.Req.IngestDir != req.IngestDir {
		return fmt.Errorf("dserve: incremental request must match base %s on ingest_dir", req.Base)
	}
	if req.IngestDir == "" {
		reqFW, _ := ResolveFramework(req.Framework) // req passed Validate already
		baseFW, err := ResolveFramework(base.Req.Framework)
		if err != nil || reqFW != baseFW || base.Req.TailLibs != req.TailLibs {
			return fmt.Errorf("dserve: incremental request must match base %s on framework, tail_libs, max_steps, and skip_verify", req.Base)
		}
	}
	if s.effectiveSteps(base.Req.MaxSteps) != s.effectiveSteps(req.MaxSteps) ||
		base.Req.SkipVerify != req.SkipVerify {
		return fmt.Errorf("dserve: incremental request must match base %s on framework, tail_libs, max_steps, and skip_verify", req.Base)
	}
	return nil
}

// effectiveSteps normalizes a request step cap the way DebloatBatch does:
// 0 takes the service default, negative means uncapped. Comparing
// normalized values keeps an omitted max_steps compatible with an
// explicitly spelled-out default.
func (s *Service) effectiveSteps(v int) int {
	if v == 0 {
		return s.cfg.MaxSteps
	}
	if v < 0 {
		return 0
	}
	return v
}

// runBatch materializes the request (shared install, member workloads,
// incremental base) and executes the batch. obs and onPlanned carry the
// job's progress hooks into the batch options.
func (s *Service) runBatch(req JobRequest, obs plan.Observer, onPlanned func(int)) (*BatchResult, error) {
	var in *mlframework.Install
	var err error
	if req.IngestDir != "" {
		in, err = s.ingestInstall(req.IngestDir)
	} else {
		var fw string
		if fw, err = ResolveFramework(req.Framework); err != nil {
			return nil, err
		}
		in, err = s.install(fw, req.TailLibs)
	}
	if err != nil {
		return nil, err
	}
	ws := make([]mlruntime.Workload, len(req.Workloads))
	for i, sp := range req.Workloads {
		if ws[i], err = sp.Workload(in); err != nil {
			return nil, fmt.Errorf("dserve: workload %d: %w", i, err)
		}
	}
	opt := BatchOptions{
		MaxSteps:   req.MaxSteps,
		SkipVerify: req.SkipVerify,
		Observer:   obs,
		OnPlanned:  onPlanned,
	}
	if req.IngestDir == "" {
		// The request's specs ride along so the cluster tier can execute
		// detect stages on their owning shard (the shard regenerates the
		// install from framework/tail_libs). Ingested installs stay
		// spec-less: a peer cannot re-read a tree it does not have, so
		// detect stages compute locally on a cluster read-through miss
		// while locate/compact/verify artifacts still flow through the
		// ring by content key.
		opt.Specs = &BatchSpecs{Framework: req.Framework, TailLibs: req.TailLibs, Workloads: req.Workloads}
	}
	if req.Base != "" {
		// The base has been pinned since Submit accepted the request, so
		// eviction cannot have released it or the store objects its stage
		// keys absorb through.
		baseRes, err := s.ResultOf(req.Base)
		if err != nil {
			return nil, fmt.Errorf("dserve: incremental base %s: %w", req.Base, err)
		}
		opt.Base, opt.BaseID = baseRes, req.Base
	}
	return s.DebloatBatch(in, ws, opt)
}

// Job returns a snapshot of the job, or nil when unknown.
func (s *Service) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil
	}
	snap := *job
	return &snap
}

// Jobs returns snapshots of every job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		snap := *s.jobs[id]
		out = append(out, &snap)
	}
	return out
}

// persistJob makes a completed job durable: it ensures every referenced
// object exists in the store, pins it, and writes the job manifest. A
// failure at any step degrades to a non-durable job (counted, not fatal) —
// the in-memory result still serves until eviction.
func (s *Service) persistJob(job *Job, res *BatchResult, finished time.Time) (*jobManifest, []storeRef) {
	abandon := func(held []storeRef) (*jobManifest, []storeRef) {
		for _, ref := range held {
			s.store.Release(ref.Kind, ref.Key)
		}
		s.Counters.Add("jobs.persist_failed", 1)
		return nil, nil
	}
	m, err := manifestOf(job, res)
	if err != nil {
		return abandon(nil)
	}
	m.Finished = finished

	// Drain the cache's write-behind spills first: the worker has been
	// overlapping its disk waits with the batch's compute, so by now most
	// referenced objects are already durable and Retain succeeds without
	// the synchronous re-spill below.
	// The persist.* timings split the durability tail the same way the
	// stage.* timings split the batch: flush (write-behind drain), retain
	// (pin sweep plus any re-spill), sync (object commit sweep), manifest
	// (manifest publish and its flush).
	t0 := time.Now()
	s.Cache.Flush()
	s.Timings.Observe("persist.flush", time.Since(t0))
	t0 = time.Now()

	var held []storeRef
	// Pin each referenced object, re-spilling any the cache layer never
	// wrote or the byte budget already evicted. Retain-then-spill keeps
	// the window in which an unpinned object can vanish to the few
	// instructions between the spill and the retry.
	for i, ml := range m.Libs {
		for _, ref := range []storeRef{{kindResult, ml.Key}, {kindSparse, ml.Key}, {kindLib, ml.LibDigest}} {
			if s.store.Retain(ref.Kind, ref.Key) {
				held = append(held, ref)
				continue
			}
			if err := spillResult(s.store, ml.Key, &negativa.LibDebloat{Report: res.Libs[i]}); err != nil {
				return abandon(held)
			}
			if !s.store.Retain(ref.Kind, ref.Key) {
				return abandon(held)
			}
			held = append(held, ref)
		}
	}
	s.Timings.Observe("persist.retain", time.Since(t0))
	data, err := json.Marshal(m)
	if err != nil {
		return abandon(held)
	}
	// Commit point: group-flush the directories holding every object
	// rename above, THEN publish the manifest that references them, then
	// flush the manifest's own rename. A crash between the two flushes
	// loses the manifest, never a manifest pointing at vanished objects.
	t0 = time.Now()
	s.store.SyncDirs()
	s.Timings.Observe("persist.sync", time.Since(t0))
	t0 = time.Now()
	if err := s.store.Put(kindJob, job.ID, data); err != nil {
		return abandon(held)
	}
	s.store.SyncDirs()
	s.Timings.Observe("persist.manifest", time.Since(t0))
	if !s.store.Retain(kindJob, job.ID) {
		return abandon(held)
	}
	held = append(held, storeRef{kindJob, job.ID})
	s.Counters.Add("jobs.persisted", 1)
	return m, held
}

// persistFailedJob makes a failed job's terminal state durable: a minimal
// manifest (no library references) so a restart keeps answering polls for
// it — and, crucially, never reissues its ID to a different job.
func (s *Service) persistFailedJob(job *Job, jobErr error, finished time.Time) (*jobManifest, []storeRef) {
	m := &jobManifest{
		ID: job.ID, State: JobFailed, Error: jobErr.Error(),
		Submitted: job.Submitted, Started: job.Started, Finished: finished,
		Req: job.Req,
	}
	data, err := json.Marshal(m)
	if err != nil {
		return nil, nil
	}
	if err := s.store.Put(kindJob, job.ID, data); err != nil || !s.store.Retain(kindJob, job.ID) {
		s.Counters.Add("jobs.persist_failed", 1)
		return nil, nil
	}
	s.store.SyncDirs()
	return m, []storeRef{{kindJob, job.ID}}
}

// restoreJobs loads persisted job manifests at boot, pinning each job's
// objects and inserting the jobs in their terminal state (done jobs with
// lazily-materialized results, failed jobs with their error). A manifest
// whose referenced objects did not all survive is dropped (and deleted)
// rather than half-restored; its ID still advances the sequence so no
// previously-issued ID is ever reused. Called from NewService before the
// service is shared, but takes s.mu for uniformity.
func (s *Service) restoreJobs() {
	var manifests []*jobManifest
	maxSeq := 0
	s.store.Walk(kindJob, func(key string, _ int64) error {
		// Every manifest key reserves its ID, even if the manifest itself
		// turns out unreadable or unrestorable below.
		if n := jobSeq(key); n > maxSeq {
			maxSeq = n
		}
		raw, ok := s.store.Get(kindJob, key)
		if !ok {
			return nil
		}
		var m jobManifest
		err := json.Unmarshal(raw, &m)
		if err != nil || m.ID != key || (m.state() == JobDone && len(m.Libs) == 0) {
			s.store.Delete(kindJob, key)
			s.Counters.Add("jobs.restore_failed", 1)
			return nil
		}
		manifests = append(manifests, &m)
		return nil
	})
	sort.Slice(manifests, func(i, j int) bool { return manifests[i].Submitted.Before(manifests[j].Submitted) })
	// MaxJobs still bounds terminal retention across restarts: keep the
	// newest, drop (and delete) the overflow.
	if len(manifests) > s.cfg.MaxJobs {
		for _, m := range manifests[:len(manifests)-s.cfg.MaxJobs] {
			s.store.Delete(kindJob, m.ID)
			s.Counters.Add("jobs.evicted", 1)
		}
		manifests = manifests[len(manifests)-s.cfg.MaxJobs:]
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range manifests {
		held := make([]storeRef, 0, 1+3*len(m.Libs))
		ok := true
		for _, ref := range m.refs() {
			if !s.store.Retain(ref.Kind, ref.Key) {
				ok = false
				break
			}
			held = append(held, ref)
		}
		if !ok {
			for _, ref := range held {
				s.store.Release(ref.Kind, ref.Key)
			}
			s.store.Delete(kindJob, m.ID)
			s.Counters.Add("jobs.restore_failed", 1)
			continue
		}
		job := &Job{
			ID: m.ID, Req: m.Req, State: m.state(), Err: m.Error,
			Submitted: m.Submitted, Started: m.Started, Finished: m.Finished,
			manifest: m, refs: held,
			events: NewEventLog(),
		}
		// A restored job's stream is just its terminal state: per-stage
		// history does not survive a restart (and does not need to — the
		// job is already done).
		job.events.Append(JobEvent{Type: EventState, State: job.State, Error: job.Err, Terminal: true})
		s.jobs[m.ID] = job
		s.order = append(s.order, m.ID)
		s.Counters.Add("jobs.restored", 1)
	}
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
}

// jobSeq parses the numeric suffix of a job ID ("job-0017" → 17) so a
// rebooted service numbers new jobs past its restored ones.
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// Typed lookup errors for the result/stream accessors; the HTTP layer maps
// them to status codes.
var (
	ErrUnknownJob  = errors.New("dserve: unknown job")
	ErrJobNotReady = errors.New("dserve: job has no result yet")
	ErrUnknownLib  = errors.New("dserve: job has no such library")
)

// ResultOf returns the job's batch result, materializing a restored job's
// result from the store on first use. The job is pinned for the duration of
// the materialization.
func (s *Service) ResultOf(id string) (*BatchResult, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrUnknownJob
	}
	if job.State != JobDone {
		// Queued, running, and failed jobs (including restored failed
		// ones, which carry a manifest but no libraries) have no result.
		s.mu.Unlock()
		return nil, ErrJobNotReady
	}
	if job.Result != nil {
		res := job.Result
		s.mu.Unlock()
		return res, nil
	}
	m := job.manifest
	if m == nil {
		s.mu.Unlock()
		return nil, ErrJobNotReady
	}
	job.pins++
	s.mu.Unlock()

	res, err := s.materialize(m)

	s.mu.Lock()
	job.pins--
	if err == nil {
		if job.Result == nil {
			job.Result = res
		} else {
			res = job.Result // another materialization won the race
		}
	}
	s.pruneJobsLocked()
	s.mu.Unlock()
	if err != nil {
		s.Counters.Add("jobs.restore_failed", 1)
		return nil, err
	}
	s.Counters.Add("jobs.materialized", 1)
	return res, nil
}

// materialize rebuilds a BatchResult from a job manifest: reports come from
// kindResult objects, images from kindLib (parsed once per digest), range
// sets from kindSparse decoded against the parsed image. No locate/compact
// runs — restored libraries are byte-identical reconstructions.
func (s *Service) materialize(m *jobManifest) (*BatchResult, error) {
	res := &BatchResult{
		InstallFP:     m.InstallFP,
		Union:         &negativa.Profile{Workload: m.UnionWorkload},
		Workloads:     append([]WorkloadOutcome(nil), m.Workloads...),
		DetectTime:    time.Duration(m.DetectNS),
		AnalysisTime:  time.Duration(m.AnalysisNS),
		WallTime:      time.Duration(m.WallNS),
		CacheHits:     m.CacheHits,
		CacheMisses:   m.CacheMisses,
		ProfileReuses: m.ProfileReuses,
		VerifySkipped: m.VerifySkipped,
		Incremental:   m.Incremental,
	}
	res.byName = make(map[string]*negativa.LibraryReport, len(m.Libs))
	for _, ml := range m.Libs {
		raw, ok := s.store.Get(kindResult, ml.Key)
		if !ok {
			return nil, fmt.Errorf("dserve: restore %s: result %.12s… missing from store", m.ID, ml.Key)
		}
		var sr storedResult
		if err := json.Unmarshal(raw, &sr); err != nil {
			return nil, fmt.Errorf("dserve: restore %s: result %.12s…: %w", m.ID, ml.Key, err)
		}
		lib, err := s.restoredLib(ml.LibDigest, ml.Name)
		if err != nil {
			return nil, fmt.Errorf("dserve: restore %s: %w", m.ID, err)
		}
		enc, ok := s.store.Get(kindSparse, ml.Key)
		if !ok {
			return nil, fmt.Errorf("dserve: restore %s: sparse %.12s… missing from store", m.ID, ml.Key)
		}
		sparse, err := negativa.DecodeSparseImage(lib, enc)
		if err != nil {
			return nil, fmt.Errorf("dserve: restore %s: %w", m.ID, err)
		}
		lr := sr.report(sparse)
		lr.Name = ml.Name
		res.Libs = append(res.Libs, lr)
		res.libKeys = append(res.libKeys, ml.Key)
		res.byName[lr.Name] = lr
	}
	return res, nil
}

// restoredLib loads and parses a library image from the store, memoized by
// content digest so restored jobs sharing libraries parse each image once.
// Failures are returned but never memoized: a missing object may reappear
// (recomputed and re-spilled by a later batch), and the next call must see
// it.
//
// The image is opened via castore.OpenMapped, so a restored library's bytes
// are a pinned page-cache view, not a heap copy. The mapping's lifetime is
// pin-scoped to the Library that aliases it: a finalizer closes it (unmap +
// unpin) once the Library — and with it every SparseImage and in-flight
// OpenLibStream response over it — becomes unreachable. Eviction can
// therefore never yank pages out from under a live response.
func (s *Service) restoredLib(digest, name string) (*elfx.Library, error) {
	type parsed struct {
		lib *elfx.Library
		err error
	}
	v := s.restoredLibs.getOK(digest, func() (any, bool) {
		m, ok := s.store.OpenMapped(kindLib, digest)
		if !ok {
			return parsed{err: fmt.Errorf("library image %.12s… missing from store", digest)}, false
		}
		lib, err := elfx.Parse(name, m.Data())
		if err != nil {
			m.Close()
			return parsed{err: err}, false
		}
		runtime.SetFinalizer(lib, func(*elfx.Library) { m.Close() })
		return parsed{lib: lib}, true
	}).(parsed)
	return v.lib, v.err
}

// LibStream is an open handle on one debloated library of a completed job.
// It pins the job (and therefore its store objects) until Close, so the
// response can stream without racing job eviction.
type LibStream struct {
	// Size is the image size in bytes (HTTP Content-Length).
	Size    int64
	sparse  *negativa.SparseImage
	release func()
}

// WriteTo streams the debloated image.
func (ls *LibStream) WriteTo(w io.Writer) (int64, error) { return ls.sparse.WriteTo(w) }

// Close releases the job pin. Idempotent.
func (ls *LibStream) Close() {
	if ls.release != nil {
		ls.release()
		ls.release = nil
	}
}

// OpenLibStream opens a debloated-library stream on a completed job,
// holding a reference on the job for the duration of the response — the
// fix for job eviction freeing images an in-flight fetch-library is still
// streaming. Callers must Close the stream.
func (s *Service) OpenLibStream(id, name string) (*LibStream, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrUnknownJob
	}
	if job.State != JobDone {
		s.mu.Unlock()
		return nil, ErrJobNotReady
	}
	job.pins++
	s.mu.Unlock()
	release := func() {
		s.mu.Lock()
		job.pins--
		// Evictions this pin deferred proceed now.
		s.pruneJobsLocked()
		s.mu.Unlock()
	}
	res, err := s.ResultOf(id)
	if err != nil {
		release()
		return nil, err
	}
	lr := res.Lib(name)
	if lr == nil || lr.Sparse == nil {
		release()
		return nil, ErrUnknownLib
	}
	return &LibStream{Size: lr.Sparse.Len(), sparse: lr.Sparse, release: release}, nil
}

// JobEvents returns the job's buffered progress events with Seq > after,
// whether the stream is terminally complete, and a channel that closes on
// the next append (for blocking long-polls and SSE). ErrUnknownJob when
// the job does not exist.
func (s *Service) JobEvents(id string, after int) ([]JobEvent, bool, <-chan struct{}, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil, ErrUnknownJob
	}
	evs, done, ch := job.events.After(after)
	return evs, done, ch, nil
}

// WaitJob blocks until the job reaches a terminal state or the timeout
// elapses, returning the final snapshot. Used by tests and the example
// client; HTTP clients poll instead.
func (s *Service) WaitJob(id string, timeout time.Duration) (*Job, error) {
	deadline := time.Now().Add(timeout)
	for {
		job := s.Job(id)
		if job == nil {
			return nil, fmt.Errorf("dserve: unknown job %q", id)
		}
		if job.State == JobDone || job.State == JobFailed {
			return job, nil
		}
		if time.Now().After(deadline) {
			return job, fmt.Errorf("dserve: job %s still %s after %v", id, job.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
