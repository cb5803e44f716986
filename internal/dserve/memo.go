package dserve

import (
	"sync"
	"sync/atomic"

	"negativaml/internal/cluster"
	"negativaml/internal/elfx"
	"negativaml/internal/metrics"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// boundedMemo memoizes values derived from immutable inputs (store-image
// parses keyed by content digest). It is wiped once it holds max entries:
// the values pin their objects against garbage collection, so the memo
// must not grow unbounded. Concurrent computes for
// the same key may run twice; both store the same value, so the race is
// benign.
type boundedMemo struct {
	m   sync.Map
	n   atomic.Int64
	max int64
}

func newBoundedMemo(max int64) *boundedMemo { return &boundedMemo{max: max} }

// get returns the memoized value for key, computing and storing it on
// first sight.
func (b *boundedMemo) get(key any, compute func() any) any {
	return b.getOK(key, func() (any, bool) { return compute(), true })
}

// getOK is get for fallible computes: a compute returning ok=false hands
// its value through without memoizing it, so transient failures (a store
// object momentarily absent) are retried on the next call instead of
// being cached forever.
func (b *boundedMemo) getOK(key any, compute func() (any, bool)) any {
	if v, ok := b.m.Load(key); ok {
		return v
	}
	v, ok := compute()
	if !ok {
		return v
	}
	if b.n.Add(1) > b.max {
		b.m.Range(func(k, _ any) bool { b.m.Delete(k); return true })
		b.n.Store(0)
	}
	b.m.Store(key, v)
	return v
}

// StageMemo is the serving plane's per-stage memoization behind the plan
// scheduler: one plan.Memo that routes each stage's content key through up
// to three tiers — local memory, local disk, owning cluster peer.
//
//   - detect → the profile Registry: memory entries keyed by (install
//     fingerprint, workload identity) recovered from the composite stage
//     hash, with on-disk profile snapshots replayed at boot. With a
//     cluster attached, a registry miss consults the stage's owning peer
//     (read-through, or remote execution when the batch carried its
//     workload spec).
//   - compact → the ResultCache: byte-bounded memory, then the
//     content-addressed store's disk tier (persisted range sets decoded
//     against the node's live library hint), then the owning peer. A
//     peer-served result is Put back into the local cache — which spills
//     it into the local castore — so hot artifacts replicate toward the
//     demand that reads them.
//   - every other stage (lib-index, locate, the capped reference run) →
//     a bounded in-memory memo with singleflight compute dedup. Locate
//     needs no peer tier of its own: its memoized value is a lazy handle
//     that only resolves under a compact miss, and compact misses route
//     to the owner — so location effectively executes on the owning shard
//     too.
//
// Every peer-tier failure (transport error, downed owner, undecodable
// payload) falls back to local compute: the cluster is an optimization
// over a node that is fully capable alone, and correctness never depends
// on a peer. The registry and cache tiers tolerate concurrent duplicate
// computes of one key (both writers store identical content — the same
// benign race the pre-stage-graph service had); the memory tier collapses
// them outright.
type StageMemo struct {
	registry *Registry
	cache    *ResultCache
	mem      *plan.MemMemo
	counters *metrics.CounterSet
	// cluster, when non-nil, adds the owning-peer tier to detect and
	// compact lookups.
	cluster *cluster.Cluster
	// exec, when non-nil, is the same executor the plan scheduler runs
	// stages under; peer round trips yield their slot through it (see
	// postJSON) when the scheduler did not hand down the calling node's
	// own slot (slotOf).
	exec plan.Executor
	// replicate, when non-nil, pushes a freshly produced compact result's
	// objects to the named replica peers in the background (the service's
	// replication plane). The memo calls it after a local compute or a
	// remote execution, so every new artifact reaches all live owners of
	// its key without waiting for the repair loop.
	replicate func(hash string, ld *negativa.LibDebloat, peers []string)

	// The batch-prefetch hot path (hotpath.go). flights is the singleflight
	// table spanning prefetch and on-demand reads of one stage key;
	// prefetched marks keys whose local-tier value a batch lookup planted
	// (read back as SourcePeer), missed marks keys a live replica answered
	// found=false for (on-demand skips its own lookup round trip); noBatch
	// remembers peers that 404 the lookup-batch route (old nodes), and
	// disableBatch turns requester-side batching off entirely.
	flightMu     sync.Mutex
	flights      map[plan.Key]chan struct{}
	hotMu        sync.Mutex
	prefetched   map[plan.Key]bool
	missed       map[plan.Key]bool
	noBatch      map[string]bool
	disableBatch bool
}

// NewStageMemo wires the service's reuse layers into one stage memo.
// counters, when non-nil, keeps the pre-stage-graph registry.hits /
// registry.misses series alive alongside the scheduler's per-stage ones.
func NewStageMemo(registry *Registry, cache *ResultCache, counters *metrics.CounterSet) *StageMemo {
	return &StageMemo{
		registry: registry,
		cache:    cache,
		mem:      plan.NewMemMemo(0),
		counters: counters,
	}
}

// AttachCluster adds the owning-peer tier. Call before serving; the memo
// never detaches a cluster.
func (m *StageMemo) AttachCluster(c *cluster.Cluster) { m.cluster = c }

// AttachReplicator installs the write-back hook that pushes new compact
// results to their replica owners. Call before serving.
func (m *StageMemo) AttachReplicator(fn func(hash string, ld *negativa.LibDebloat, peers []string)) {
	m.replicate = fn
}

// AttachExecutor hands the memo the executor its callers hold slots of.
// Every GetOrCompute happens inside a plan node that has Acquired ex, so
// the memo may temporarily Release that slot around pure I/O waits. Call
// before serving, with the same executor passed to Graph.Execute.
func (m *StageMemo) AttachExecutor(ex plan.Executor) { m.exec = ex }

// DisableBatching turns the requester-side batch-prefetch path off —
// the operator escape hatch mirroring Config.DisablePeerBatch on the
// serving side. Call before serving.
func (m *StageMemo) DisableBatching() { m.disableBatch = true }

// slotOf picks the executor a network wait yields through: the calling
// node's own slot when the scheduler handed one down (re-acquisition then
// re-joins priority admission at the node's critical-path weight), else
// the service-wide attached executor.
func (m *StageMemo) slotOf(slot plan.Executor) plan.Executor {
	if slot != nil {
		return slot
	}
	return m.exec
}

// postJSON runs one peer round trip with the caller's executor slot
// yielded. Plan nodes hold a worker slot while resolving their memo, but
// a peer lookup is pure network wait — holding a CPU-sized slot across it
// would serialize the whole read-through tier behind the compute budget
// (on a small Workers bound, every peer-warm batch degenerates to one
// round trip at a time). The slot is re-Acquired before returning, so
// compute after the wire — decode, verify, local compute on fallback —
// still runs under the pool's bound.
func (m *StageMemo) postJSON(slot plan.Executor, owner, path string, req, resp any) error {
	m.countRoundTrip()
	if ex := m.slotOf(slot); ex != nil {
		ex.Release()
		defer ex.Acquire()
	}
	return m.cluster.PostJSON(owner, path, req, resp)
}

// replicaOwners returns the stage key's replica set (ring order, primary
// first) and this node's ID, when a cluster is attached.
func (m *StageMemo) replicaOwners(key plan.Key) (owners []string, self string) {
	if m.cluster == nil {
		return nil, ""
	}
	return m.cluster.Owners(key.String()), m.cluster.Self()
}

// remotesOf filters self out of a replica set.
func remotesOf(owners []string, self string) []string {
	out := make([]string, 0, len(owners))
	for _, id := range owners {
		if id != self {
			out = append(out, id)
		}
	}
	return out
}

// without filters one peer out of a slice.
func without(peers []string, id string) []string {
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		if p != id {
			out = append(out, p)
		}
	}
	return out
}

// replicateTo hands a freshly produced compact result to the background
// replication plane, when one is attached and the result is spillable.
func (m *StageMemo) replicateTo(hash string, ld *negativa.LibDebloat, peers []string) {
	if m.replicate == nil || len(peers) == 0 || ld == nil || ld.Report == nil || ld.Report.Sparse == nil {
		return
	}
	m.replicate(hash, ld, peers)
}

// GetOrCompute implements plan.Memo.
func (m *StageMemo) GetOrCompute(key plan.Key, hint any, compute func() (any, error)) (any, bool, error) {
	v, src, err := m.GetOrComputeSourced(key, hint, compute)
	return v, src.Hit(), err
}

// GetOrComputeSourced implements plan.SourcedMemo, attributing each value
// to the tier that produced it. Detect and compact keys run under the
// hot path's singleflight table: local-tier probes loop until the caller
// either hits (possibly on a value a concurrent prefetch or reader just
// planted) or becomes the key's flight leader, so one key never has two
// remote reads or two local computes in flight at once.
func (m *StageMemo) GetOrComputeSourced(key plan.Key, hint any, compute func() (any, error)) (any, plan.Source, error) {
	return m.GetOrComputeSourcedSlot(nil, key, hint, compute)
}

// GetOrComputeSourcedSlot implements plan.SlotSourcedMemo: the scheduler
// hands down the calling node's executor slot, so every network wait on
// this consultation yields and re-acquires through the node's own
// priority admission rather than the raw pool.
func (m *StageMemo) GetOrComputeSourcedSlot(slot plan.Executor, key plan.Key, hint any, compute func() (any, error)) (any, plan.Source, error) {
	switch key.Stage {
	case negativa.StageDetect:
		fp, wid, ok := negativa.SplitDetectHash(key.Hash)
		if !ok {
			break
		}
		pk := ProfileKey{Install: fp, Workload: wid}
		for {
			if p, ok := m.registry.Get(pk); ok {
				m.count("registry.hits")
				return p, m.consumeSource(key, plan.SourceMemory), nil
			}
			if m.beginFlight(key) {
				break
			}
			m.awaitFlight(slot, key)
		}
		defer m.endFlight(key)
		return m.detectLeader(slot, key, pk, hint, compute)
	case negativa.StageCompact:
		lib, ch := compactHintOf(hint)
		for {
			if ld, ok := m.cache.Get(key.Hash); ok {
				return ld, m.consumeSource(key, plan.SourceMemory), nil
			}
			if ld, ok := m.cache.LoadStored(key.Hash, lib); ok {
				return ld, m.consumeSource(key, plan.SourceDisk), nil
			}
			if m.beginFlight(key) {
				break
			}
			m.awaitFlight(slot, key)
		}
		defer m.endFlight(key)
		return m.compactLeader(slot, key, lib, ch, compute)
	}
	v, hit, err := m.mem.GetOrCompute(key, hint, compute)
	src := plan.SourceComputed
	if hit {
		src = plan.SourceMemory
	}
	return v, src, err
}

// detectLeader is the flight leader's read-through for one detect key:
// hedged replica lookup (skipped when a batch lookup already saw the
// replica set clean-miss), hinted remote execution on the primary shard,
// then local compute.
func (m *StageMemo) detectLeader(slot plan.Executor, key plan.Key, pk ProfileKey, hint any, compute func() (any, error)) (any, plan.Source, error) {
	if owners, self := m.replicaOwners(key); len(owners) > 0 {
		dh, _ := hint.(*detectHint)
		remotes := remotesOf(owners, self)
		primary := owners[0]
		// Read through the remote replicas, hedged — even when this node
		// is itself an owner whose local tiers missed (a fresh replacement
		// node is primary for keys whose history lives only on the
		// surviving replicas).
		if len(remotes) > 0 && !m.consumeMiss(key) {
			m.cluster.SortByLatency(remotes)
			targets := remotes
			if dh != nil {
				// The hinted escalation below starts with the primary's own
				// registry probe, so a separate primary lookup would only
				// add a round trip.
				targets = without(remotes, primary)
			}
			if lr, peer, ok := m.hedgedLookup(slot, targets, peerLookupRequest{Stage: negativa.StageDetect, Hash: key.Hash}); ok {
				if lr.Profile != nil && lr.Profile.RunResult != nil {
					if peer != primary {
						m.count("peer.replica_reads")
					}
					m.count("peer.hits")
					m.registry.Put(pk, lr.Profile)
					return lr.Profile, plan.SourcePeer, nil
				}
				m.count("peer.fallbacks")
			}
		}
		// One round trip: the execute route starts with the owner's
		// registry probe, and the owner memoizes what it executes.
		if dh != nil && primary != self {
			if p, ok := m.peerDetect(slot, primary, key.Hash, dh); ok {
				m.registry.Put(pk, p)
				return p, plan.SourcePeer, nil
			}
		}
	}
	v, err := compute()
	if err != nil {
		return nil, plan.SourceComputed, err
	}
	m.registry.Put(pk, v.(*negativa.Profile))
	m.count("registry.misses")
	return v, plan.SourceComputed, nil
}

// compactLeader is the flight leader's read-through for one compact key:
// hedged replica lookup, remote execution on the primary shard, local
// compute — each step writing back so the replica set converges.
func (m *StageMemo) compactLeader(slot plan.Executor, key plan.Key, lib *elfx.Library, ch *compactHint, compute func() (any, error)) (any, plan.Source, error) {
	owners, self := m.replicaOwners(key)
	remotes := remotesOf(owners, self)
	if lib != nil && len(remotes) > 0 {
		primary := owners[0]
		if !m.consumeMiss(key) {
			m.cluster.SortByLatency(remotes)
			if lr, peer, ok := m.hedgedLookup(slot, remotes, peerLookupRequest{Stage: negativa.StageCompact, Hash: key.Hash}); ok {
				if ld, decOK := decodePeerResult(lib, lr.Result, lr.Sparse); decOK {
					// Replicate toward demand: the local Put spills the
					// result into this node's castore, so the next miss
					// here is a disk hit, not another network hop.
					if peer != primary {
						m.count("peer.replica_reads")
					}
					m.count("peer.hits")
					m.cache.Put(key.Hash, ld)
					return ld, plan.SourcePeer, nil
				}
				m.count("peer.fallbacks")
			}
		}
		// Every replica missed: execute on the primary shard (it owns
		// the memoization), then write the result back to the other
		// live owners so the whole replica set converges immediately.
		if ch != nil && primary != self {
			if ld, ok := m.peerCompactExec(slot, primary, key.Hash, lib, ch); ok {
				m.cache.Put(key.Hash, ld)
				m.replicateTo(key.Hash, ld, without(remotes, primary))
				return ld, plan.SourcePeer, nil
			}
		}
	}
	v, err := compute()
	if err != nil {
		return nil, plan.SourceComputed, err
	}
	ld := v.(*negativa.LibDebloat)
	m.cache.Put(key.Hash, ld)
	// Local compute writes back to every live remote owner of the key.
	m.replicateTo(key.Hash, ld, remotes)
	return v, plan.SourceComputed, nil
}

func (m *StageMemo) count(name string) {
	if m.counters != nil {
		m.counters.Add(name, 1)
	}
}
