package dserve

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/elfx"
	"negativaml/internal/gpuarch"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// The peer wire protocol. Every route lives under /v1/peer/ and is spoken
// only between dserve nodes of one cluster:
//
//	POST /v1/peer/lookup                 read-through: return an already-
//	                                     memoized stage value by content key
//	POST /v1/peer/detect                 execute a detect stage on its
//	                                     owning shard (registry-memoized)
//	POST /v1/peer/compact                execute a locate+compact stage on
//	                                     its owning shard (cache-memoized)
//	GET  /v1/peer/objects/{kind}/{key}   stream one castore object in its
//	                                     integrity-framed wire format
//
// The surface is node-to-node only: routes answer 404 unless a cluster is
// attached, and a cluster configured with a shared secret (see
// cluster.Options.Secret) additionally requires it on every request.
//
// Compact lookups are cheap (no payloads shipped on a miss), so the
// requester probes before escalating to remote execution, which carries
// the library image inline; detect requests are small either way, so a
// hinted requester goes straight to the execute route (which starts with
// the owner's registry probe). Responses hand back the same durable forms the
// castore disk tier uses (storedResult JSON + encoded sparse range set),
// which the requester decodes against its own live library — the
// digest-bound sparse codec makes a mismatched or corrupted payload a
// decode error, never a wrong image.

// peerLookupRequest asks a peer for a stage value it may have memoized.
type peerLookupRequest struct {
	Stage string `json:"stage"`
	Hash  string `json:"hash"`
}

// peerLookupResponse carries the stage value when found: a detection
// profile for detect stages, a stored result + encoded sparse range set
// for compact stages.
type peerLookupResponse struct {
	Found   bool              `json:"found"`
	Profile *negativa.Profile `json:"profile,omitempty"`
	Result  *storedResult     `json:"result,omitempty"`
	Sparse  []byte            `json:"sparse,omitempty"`
}

// peerBatchLookupRequest asks a peer for many stage values in one round
// trip — the scatter half of the batch-prefetch path. Keys are capped at
// maxBatchLookupKeys per request; requesters chunk above that.
type peerBatchLookupRequest struct {
	Keys []peerLookupRequest `json:"keys"`
}

// peerBatchLookupResponse answers index-aligned with the request's keys.
// A key the peer does not hold (or cannot parse) is found=false — a batch
// lookup never fails because one key was bad.
type peerBatchLookupResponse struct {
	Results []peerLookupResponse `json:"results"`
}

// maxBatchLookupKeys bounds one batch lookup, so a single request cannot
// make a peer do unbounded memo reads (mirrors maxStatObjects on the
// repair plane).
const maxBatchLookupKeys = 256

// peerDetectRequest executes one detect stage on its owning shard. The
// spec (plus framework and tail-libs) is everything the owner needs to
// regenerate the install — installs are deterministic functions of their
// config — and the fingerprint pins the request to the bytes the requester
// actually holds.
type peerDetectRequest struct {
	InstallFP string       `json:"install_fp"`
	Identity  string       `json:"identity"`
	Framework string       `json:"framework"`
	TailLibs  int          `json:"tail_libs"`
	MaxSteps  int          `json:"max_steps"`
	Spec      WorkloadSpec `json:"spec"`
}

type peerDetectResponse struct {
	Profile *negativa.Profile `json:"profile"`
	// Hit reports the profile was already registered on the owner.
	Hit bool `json:"hit"`
}

// peerCompactRequest executes one locate+compact stage on its owning
// shard, shipping the library image inline (the owner may have never seen
// it). The owner re-derives the stage key from the inputs and refuses a
// mismatch, so a confused requester cannot poison the owner's memo.
type peerCompactRequest struct {
	Key         string   `json:"key"`
	LibName     string   `json:"lib_name"`
	LibDigest   string   `json:"lib_digest"`
	Lib         []byte   `json:"lib"`
	UsedFuncs   []string `json:"used_funcs"`
	UsedKernels []string `json:"used_kernels"`
	Archs       []uint32 `json:"archs"`
}

type peerCompactResponse struct {
	Result *storedResult `json:"result"`
	Sparse []byte        `json:"sparse"`
	// Hit reports the result was already memoized on the owner.
	Hit bool `json:"hit"`
}

// peerBodyLimit bounds peer request bodies. Compact execution ships a full
// library image inline, so the bound is far above the client-facing
// maxRequestBytes.
const peerBodyLimit = 256 << 20

// Sparse wire-codec negotiation. A node that can decode the compact v2
// codec advertises it on every outgoing peer request (the header is
// installed on the cluster transport by AttachCluster); a responder emits
// v2 only to a requester that advertised it, and v1 otherwise. Old nodes
// neither send nor understand the header, so every mixed pairing degrades
// to v1: old→new requests get v1 answers, new→old requests are answered by
// a node that ignores the header and emits v1 — which the new node's
// magic-sniffing decoder accepts. See negativa.TranscodeSparseWire for the
// codec itself.
const (
	// SparseCodecHeader is the Accept-style capability header naming the
	// highest sparse wire-codec version the requester decodes.
	SparseCodecHeader = "X-Negativa-Sparse-Codec"
	sparseCodecV2     = "2"
)

// wantsWireV2 reports whether this node answers the request in the compact
// v2 sparse codec: the requester advertised it and this node's v2 support
// is not switched off (Config.DisableSparseWireV2 silences both directions,
// so the knob is a faithful pre-v2-node stand-in).
func (s *Service) wantsWireV2(r *http.Request) bool {
	return !s.cfg.DisableSparseWireV2 && r.Header.Get(SparseCodecHeader) == sparseCodecV2
}

// encodeSparseFor encodes a live sparse image for a peer response in the
// newest codec the requester advertised.
func (s *Service) encodeSparseFor(r *http.Request, sp *negativa.SparseImage) []byte {
	if s.wantsWireV2(r) {
		return sp.EncodeWire()
	}
	return sp.Encode()
}

// transcodeSparseFor re-encodes stored (canonical v1) sparse bytes for the
// requester's advertised codec. Transcoding failure falls back to the
// stored bytes — the requester's digest-bound decoder is the integrity
// authority either way.
func (s *Service) transcodeSparseFor(r *http.Request, enc []byte) []byte {
	if !s.wantsWireV2(r) {
		return enc
	}
	v2, err := negativa.TranscodeSparseWire(enc, 2)
	if err != nil {
		return enc
	}
	return v2
}

// registerPeerRoutes mounts the node-to-node API. Every route is guarded
// by peerAuth: a node with no cluster attached refuses peer traffic
// outright, and a cluster configured with a shared secret refuses
// requests that do not present it.
func registerPeerRoutes(mux *http.ServeMux, s *Service) {
	mux.HandleFunc("POST /v1/peer/lookup", s.peerAuth(s.handlePeerLookup))
	mux.HandleFunc("POST /v1/peer/lookup-batch", s.peerAuth(s.handlePeerLookupBatch))
	mux.HandleFunc("POST /v1/peer/detect", s.peerAuth(s.handlePeerDetect))
	mux.HandleFunc("POST /v1/peer/compact", s.peerAuth(s.handlePeerCompact))
	mux.HandleFunc("GET /v1/peer/objects/{kind}/{key}", s.peerAuth(s.handlePeerObject))
	mux.HandleFunc("PUT /v1/peer/objects/{kind}/{key}", s.peerAuth(s.handlePeerObjectPut))
	mux.HandleFunc("POST /v1/peer/stat", s.peerAuth(s.handlePeerStat))
	mux.HandleFunc("POST "+cluster.PingPath, s.peerAuth(s.handlePeerPing))
	mux.HandleFunc("POST "+cluster.JoinPath, s.peerAuth(s.handlePeerJoin))
	mux.HandleFunc("POST "+cluster.LeavePath, s.peerAuth(s.handlePeerLeave))
}

// peerAuth guards one node-to-node route. The peer surface exists only on
// clustered nodes — anywhere else it is 404, indistinguishable from an
// unmounted route, so a standalone (or gateway-fronted) deployment exposes
// no analysis-compute or object-transfer endpoints to strangers. When the
// attached cluster carries a shared secret, every request must present it
// in cluster.PeerSecretHeader; the comparison is constant-time. A cluster
// without a secret still answers any request that reaches it — that mode
// is for deployments whose peer network is isolated from client traffic
// (see docs/API.md).
func (s *Service) peerAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := s.Cluster()
		if c == nil {
			httpError(w, http.StatusNotFound, errors.New("peer API requires cluster mode (start with -peers)"))
			return
		}
		if secret := c.Secret(); secret != "" {
			got := r.Header.Get(cluster.PeerSecretHeader)
			if subtle.ConstantTimeCompare([]byte(got), []byte(secret)) != 1 {
				httpError(w, http.StatusUnauthorized, errors.New("missing or wrong peer secret"))
				return
			}
		}
		h(w, r)
	}
}

func decodePeerBody(w http.ResponseWriter, r *http.Request, limit int64, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("decode peer request: %w", err))
		return false
	}
	return true
}

// lookupStage resolves one read-through key against this node's local
// tiers (memory, then castore), answering in durable wire form. The error
// names an unservable key (unknown stage, malformed hash); a clean miss is
// found=false with no error.
func (s *Service) lookupStage(r *http.Request, key peerLookupRequest) (peerLookupResponse, error) {
	resp := peerLookupResponse{}
	switch key.Stage {
	case negativa.StageDetect:
		fp, wid, ok := negativa.SplitDetectHash(key.Hash)
		if !ok {
			return resp, errors.New("malformed detect hash")
		}
		if p, ok := s.Registry.Get(ProfileKey{Install: fp, Workload: wid}); ok {
			resp.Found, resp.Profile = true, p
		}
	case negativa.StageCompact:
		if ld, ok := s.Cache.Get(key.Hash); ok && ld.Report != nil && ld.Report.Sparse != nil {
			sr := storedResultOf(ld)
			resp.Found, resp.Result, resp.Sparse = true, &sr, s.encodeSparseFor(r, ld.Report.Sparse)
		} else if s.store != nil {
			raw, ok1 := s.store.Get(kindResult, key.Hash)
			enc, ok2 := s.store.Get(kindSparse, key.Hash)
			if ok1 && ok2 {
				var sr storedResult
				if err := json.Unmarshal(raw, &sr); err == nil {
					resp.Found, resp.Result, resp.Sparse = true, &sr, s.transcodeSparseFor(r, enc)
				}
			}
		}
	default:
		return resp, fmt.Errorf("stage %q has no peer lookup", key.Stage)
	}
	if resp.Found {
		s.Counters.Add("peer.served_hits", 1)
	}
	return resp, nil
}

// handlePeerLookup serves the read-through tier: a stage value this node
// already holds in memory or in its castore, in durable wire form. A miss
// is a found=false success, never an error — the requester decides whether
// to escalate to remote execution.
func (s *Service) handlePeerLookup(w http.ResponseWriter, r *http.Request) {
	var req peerLookupRequest
	if !decodePeerBody(w, r, maxRequestBytes, &req) {
		return
	}
	s.Counters.Add("peer.served_lookups", 1)
	resp, err := s.lookupStage(r, req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePeerLookupBatch is the scatter-gather read-through route: many
// keys in, index-aligned answers out, one round trip — the batch-prefetch
// path that collapses a peer-warm batch's per-stage lookups into one
// request per replica group. An unservable key answers found=false in
// place instead of failing its neighbors. Config.DisablePeerBatch makes
// the route answer a plain 404, indistinguishable from a node predating
// it — the mixed-version stand-in; requesters then degrade to per-key
// lookups.
func (s *Service) handlePeerLookupBatch(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DisablePeerBatch {
		http.NotFound(w, r)
		return
	}
	var req peerBatchLookupRequest
	if !decodePeerBody(w, r, peerBodyLimit, &req) {
		return
	}
	if len(req.Keys) > maxBatchLookupKeys {
		httpError(w, http.StatusBadRequest, fmt.Errorf("batch of %d keys exceeds the %d bound", len(req.Keys), maxBatchLookupKeys))
		return
	}
	s.Counters.Add("peer.served_batches", 1)
	s.Counters.Add("peer.served_lookups", int64(len(req.Keys)))
	resp := peerBatchLookupResponse{Results: make([]peerLookupResponse, len(req.Keys))}
	for i, key := range req.Keys {
		lr, err := s.lookupStage(r, key)
		if err != nil {
			continue // found=false in place
		}
		resp.Results[i] = lr
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePeerDetect executes a detect stage as its owning shard: the
// install is regenerated from the request config (deterministic), pinned
// to the requester's fingerprint, profiled, and registered — so the owner
// memoizes what it executed and every later lookup for this key hits.
// Execution (not the registry fast path) is bounded by the peer-execution
// semaphore so a busy shard cannot be driven past its worker width.
func (s *Service) handlePeerDetect(w http.ResponseWriter, r *http.Request) {
	var req peerDetectRequest
	if !decodePeerBody(w, r, maxRequestBytes, &req) {
		return
	}
	s.Counters.Add("peer.served_detects", 1)
	pk := ProfileKey{Install: req.InstallFP, Workload: req.Identity}
	if p, ok := s.Registry.Get(pk); ok {
		writeJSON(w, http.StatusOK, peerDetectResponse{Profile: p, Hit: true})
		return
	}
	s.peerSem <- struct{}{}
	defer func() { <-s.peerSem }()
	fw, err := ResolveFramework(req.Framework)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.TailLibs < 0 || req.TailLibs > MaxTailLibs {
		httpError(w, http.StatusBadRequest, fmt.Errorf("tail_libs %d out of range", req.TailLibs))
		return
	}
	if req.MaxSteps < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("max_steps %d out of range", req.MaxSteps))
		return
	}
	in, err := s.install(fw, req.TailLibs)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if got := InstallFingerprint(in); got != req.InstallFP {
		// The requester's install bytes differ from what this node
		// generates for the same config — a version skew a profile must
		// never paper over.
		httpError(w, http.StatusConflict, fmt.Errorf("install fingerprint mismatch: have %.12s…, requested %.12s…", got, req.InstallFP))
		return
	}
	wl, err := req.Spec.Workload(in)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if id := WorkloadIdentity(wl, req.MaxSteps); id != req.Identity {
		httpError(w, http.StatusBadRequest, fmt.Errorf("workload identity mismatch: spec resolves to %q", id))
		return
	}
	p, err := negativa.DetectUsage(wl, req.MaxSteps)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.Registry.Put(pk, p)
	s.Counters.Add("peer.executed_detects", 1)
	writeJSON(w, http.StatusOK, peerDetectResponse{Profile: p})
}

// handlePeerCompact executes a locate+compact stage as its owning shard.
// The stage key is re-derived from the shipped inputs and must match the
// requested one; the result lands in this node's cache (and castore, when
// attached) before it is returned, so the shard owns the memoization.
// The memory-tier fast path answers without touching the semaphore;
// everything that parses or computes is bounded by it.
func (s *Service) handlePeerCompact(w http.ResponseWriter, r *http.Request) {
	var req peerCompactRequest
	if !decodePeerBody(w, r, peerBodyLimit, &req) {
		return
	}
	s.Counters.Add("peer.served_compacts", 1)
	if ld, ok := s.Cache.Get(req.Key); ok && ld.Report != nil && ld.Report.Sparse != nil {
		sr := storedResultOf(ld)
		writeJSON(w, http.StatusOK, peerCompactResponse{Result: &sr, Sparse: s.encodeSparseFor(r, ld.Report.Sparse), Hit: true})
		return
	}
	s.peerSem <- struct{}{}
	defer func() { <-s.peerSem }()
	lib, err := s.shippedLib(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if ld, ok := s.Cache.LoadStored(req.Key, lib); ok && ld.Report != nil && ld.Report.Sparse != nil {
		sr := storedResultOf(ld)
		writeJSON(w, http.StatusOK, peerCompactResponse{Result: &sr, Sparse: s.encodeSparseFor(r, ld.Report.Sparse), Hit: true})
		return
	}
	archs := make([]gpuarch.SM, len(req.Archs))
	for i, a := range req.Archs {
		archs[i] = gpuarch.SM(a)
	}
	lk := negativa.LocateKey(lib, req.UsedFuncs, req.UsedKernels, archs)
	if negativa.CompactKey(lk).Hash != req.Key {
		httpError(w, http.StatusBadRequest, errors.New("stage key does not match its inputs"))
		return
	}
	ll, err := negativa.LocateLib(lib, req.UsedFuncs, req.UsedKernels, archs)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.Counters.Add("locate.resolved", 1)
	ld := negativa.CompactLocated(lib, ll, req.UsedFuncs, req.UsedKernels)
	s.Counters.Add("analysis.computed", 1)
	s.Counters.Add("peer.executed_compacts", 1)
	s.Cache.Put(req.Key, ld)
	sr := storedResultOf(ld)
	writeJSON(w, http.StatusOK, peerCompactResponse{Result: &sr, Sparse: s.encodeSparseFor(r, ld.Report.Sparse)})
}

// shippedLib resolves a compact request's shipped library. When the cache
// already holds an image with the claimed digest and name, and the shipped
// bytes are exactly that image's, the request shares it: results the cache
// keeps over one library then pin one image, as the cache charges them.
// Otherwise the bytes are parsed and must hash to the claimed digest. The
// request's decoded copy is dropped either way.
func (s *Service) shippedLib(req *peerCompactRequest) (*elfx.Library, error) {
	shipped := req.Lib
	req.Lib = nil
	var digest [sha256.Size]byte
	if d, err := hex.DecodeString(req.LibDigest); err == nil && len(d) == len(digest) {
		copy(digest[:], d)
		if lib, ok := s.Cache.Image(digest, req.LibName); ok && bytes.Equal(lib.Data, shipped) {
			return lib, nil
		}
	}
	lib, err := elfx.Parse(req.LibName, shipped)
	if err != nil {
		return nil, fmt.Errorf("parse shipped library: %w", err)
	}
	if digestHex(lib) != req.LibDigest {
		return nil, errors.New("library digest mismatch")
	}
	return lib, nil
}

// handlePeerObject streams one castore object in its integrity-framed wire
// format (castore.Export); the receiving peer verifies the checksum on
// import. The object is pinned for the duration of the response so LRU
// eviction cannot delete it between the Content-Length header and the
// body. 404s: no store attached, or the object is absent. A mid-stream
// export failure cannot change the already-sent status; it is counted
// (peer.object_export_errors) and the importer's checksum rejects the
// truncated body.
//
// Sparse objects to a v2-advertising requester are transcoded to the
// compact wire codec and re-framed in memory (they are O(ranges), so this
// is cheap), with the response's codec header telling the requester to
// transcode back before storing — disk stays canonical v1 on both ends.
// Every other (kind, requester) pairing streams the stored bytes as-is.
func (s *Service) handlePeerObject(w http.ResponseWriter, r *http.Request) {
	st := s.Store()
	if st == nil {
		httpError(w, http.StatusNotFound, errors.New("no data dir configured"))
		return
	}
	kind, key := r.PathValue("kind"), r.PathValue("key")
	if !st.Retain(kind, key) {
		httpError(w, http.StatusNotFound, fmt.Errorf("no object %s/%s", kind, key))
		return
	}
	defer st.Release(kind, key)
	if kind == kindSparse && s.wantsWireV2(r) {
		if enc, ok := st.Get(kind, key); ok {
			if v2, err := negativa.TranscodeSparseWire(enc, 2); err == nil {
				framed := castore.Frame(v2)
				s.Counters.Add("peer.served_objects", 1)
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Header().Set("Content-Length", strconv.Itoa(len(framed)))
				w.Header().Set(SparseCodecHeader, sparseCodecV2)
				w.WriteHeader(http.StatusOK)
				if _, err := w.Write(framed); err != nil {
					s.Counters.Add("peer.object_export_errors", 1)
				}
				return
			}
		}
		// Unreadable or untranscodable: fall through to the raw stream —
		// the importer's checksum is the authority on whether it's usable.
	}
	size, ok := st.Stat(kind, key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no object %s/%s", kind, key))
		return
	}
	s.Counters.Add("peer.served_objects", 1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size+castore.HeaderSize, 10))
	w.WriteHeader(http.StatusOK)
	if _, err := st.Export(kind, key, w); err != nil {
		s.Counters.Add("peer.object_export_errors", 1)
	}
}

// peerObjectRef names one castore object on the stat wire.
type peerObjectRef struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
}

// peerStatRequest asks which of a batch of objects the peer holds — the
// repair plane's probe. Batched so one round trip covers a whole repair
// round's candidate set (or a chunk of it).
type peerStatRequest struct {
	Objects []peerObjectRef `json:"objects"`
}

// peerStatResponse answers presence per requested object, index-aligned.
type peerStatResponse struct {
	Present []bool `json:"present"`
}

// maxStatObjects bounds one stat probe. Repair chunks its candidate sets
// under this, and a hostile request cannot make the node do unbounded
// work in one call.
const maxStatObjects = 4096

// handlePeerPing answers the heartbeat/probe route: membership gossip in
// both directions, and the liveness signal that readmits this node on
// peers that had marked it down.
func (s *Service) handlePeerPing(w http.ResponseWriter, r *http.Request) {
	var req cluster.HeartbeatRequest
	if !decodePeerBody(w, r, maxRequestBytes, &req) {
		return
	}
	s.Counters.Add("peer.served_pings", 1)
	writeJSON(w, http.StatusOK, s.Cluster().HandleHeartbeat(req))
}

// handlePeerJoin admits a node into this node's membership view and
// answers with the full live member set, so a joiner learns the cluster
// from any one member. Gossip spreads the addition to everyone else.
func (s *Service) handlePeerJoin(w http.ResponseWriter, r *http.Request) {
	var req cluster.JoinRequest
	if !decodePeerBody(w, r, maxRequestBytes, &req) {
		return
	}
	c := s.Cluster()
	if req.ID == "" || req.URL == "" {
		httpError(w, http.StatusBadRequest, errors.New("join requires id and url"))
		return
	}
	if req.ID == c.Self() {
		httpError(w, http.StatusBadRequest, fmt.Errorf("node %q cannot join itself", req.ID))
		return
	}
	c.AddPeer(req.ID, req.URL)
	s.Counters.Add("peer.served_joins", 1)
	writeJSON(w, http.StatusOK, cluster.JoinResponse{Nodes: c.Membership()})
}

// handlePeerLeave retires a node from this node's membership view and
// tombstones its ID against gossip resurrection. The leaving node calls
// this on every peer after handing its primary-owned objects off.
func (s *Service) handlePeerLeave(w http.ResponseWriter, r *http.Request) {
	var req cluster.LeaveRequest
	if !decodePeerBody(w, r, maxRequestBytes, &req) {
		return
	}
	if req.ID == "" {
		httpError(w, http.StatusBadRequest, errors.New("leave requires id"))
		return
	}
	s.Cluster().RemovePeer(req.ID)
	s.Counters.Add("peer.served_leaves", 1)
	writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
}

// handlePeerStat answers a batched presence probe against the local
// castore — the cheap half of anti-entropy repair (the expensive half,
// streaming, only runs for objects this route reports absent).
func (s *Service) handlePeerStat(w http.ResponseWriter, r *http.Request) {
	st := s.Store()
	if st == nil {
		httpError(w, http.StatusNotFound, errors.New("no data dir configured"))
		return
	}
	var req peerStatRequest
	if !decodePeerBody(w, r, peerBodyLimit, &req) {
		return
	}
	if len(req.Objects) > maxStatObjects {
		httpError(w, http.StatusBadRequest, fmt.Errorf("stat of %d objects exceeds the %d bound", len(req.Objects), maxStatObjects))
		return
	}
	s.Counters.Add("peer.served_stats", 1)
	present := make([]bool, len(req.Objects))
	for i, o := range req.Objects {
		present[i] = st.Has(o.Kind, o.Key)
	}
	writeJSON(w, http.StatusOK, peerStatResponse{Present: present})
}

// handlePeerObjectPut receives one pushed object in its integrity-framed
// wire format — the replication / repair / handoff ingest path, the wire
// mirror of handlePeerObject. Import verifies the end-to-end checksum and
// cleans up after truncated or corrupt streams, so a dying pusher leaves
// no partial state here. Pushed kinds are restricted to the replication
// set. A pushed profile snapshot is additionally ingested into the live
// registry (imports land in the store, but detect lookups are served from
// memory); a snapshot that does not parse as a usable profile is removed
// again and refused.
func (s *Service) handlePeerObjectPut(w http.ResponseWriter, r *http.Request) {
	st := s.Store()
	if st == nil {
		httpError(w, http.StatusNotFound, errors.New("no data dir configured"))
		return
	}
	kind, key := r.PathValue("kind"), r.PathValue("key")
	switch kind {
	case kindLib, kindSparse, kindResult, kindProfile:
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("kind %q is not replicated", kind))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, peerBodyLimit+castore.HeaderSize)
	n, err := st.Import(kind, key, r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("import %s/%s: %w", kind, key, err))
		return
	}
	if kind == kindProfile {
		raw, ok := st.Get(kind, key)
		var sp storedProfile
		if !ok || json.Unmarshal(raw, &sp) != nil || sp.Profile == nil || sp.Profile.RunResult == nil {
			st.Delete(kind, key)
			httpError(w, http.StatusBadRequest, errors.New("pushed profile snapshot is not usable"))
			return
		}
		s.Registry.Put(ProfileKey{Install: sp.Install, Workload: sp.Workload}, sp.Profile)
	}
	s.Counters.Add("peer.objects_received", 1)
	writeJSON(w, http.StatusOK, map[string]int64{"bytes": n})
}

// ---- Requester side: the stage memo's peer tier ----

// detectHint carries what the peer tier needs to execute a detect stage on
// its owning shard. Attached to detect nodes by DebloatBatch when the
// batch arrived with its workload specs (the HTTP path); library callers
// without specs simply detect locally on a registry miss.
type detectHint struct {
	framework string
	tailLibs  int
	maxSteps  int
	spec      WorkloadSpec
}

// compactHint carries the compact stage's live library and — filled in by
// the node's key function, which runs before the memo is consulted — the
// union-resolved inputs a peer needs to re-execute the stage remotely.
type compactHint struct {
	lib         *elfx.Library
	usedFuncs   []string
	usedKernels []string
	archs       []gpuarch.SM
}

// compactHintOf accepts both hint shapes compact nodes use: the bare
// library (the single-workload planner in internal/negativa) and the full
// cluster hint (the batch service).
func compactHintOf(hint any) (*elfx.Library, *compactHint) {
	switch h := hint.(type) {
	case *elfx.Library:
		return h, nil
	case *compactHint:
		return h.lib, h
	}
	return nil, nil
}

// peerDetect resolves a detect stage through its owning peer. With a hint
// (the workload spec) it goes straight to /v1/peer/detect in one round
// trip — that route begins with the owner's own registry probe and the
// request is a small spec, so a preliminary lookup would only double the
// latency. Without a hint there is nothing to execute remotely, so a
// lookup probe is all that happens. ok=false means the caller should
// compute locally; the failure has already been counted.
func (m *StageMemo) peerDetect(slot plan.Executor, owner, hash string, hint *detectHint) (*negativa.Profile, bool) {
	if hint == nil {
		var lr peerLookupResponse
		if err := m.postJSON(slot, owner, "/v1/peer/lookup", peerLookupRequest{Stage: negativa.StageDetect, Hash: hash}, &lr); err != nil {
			m.count("peer.fallbacks")
			return nil, false
		}
		if lr.Found && lr.Profile != nil && lr.Profile.RunResult != nil {
			m.count("peer.hits")
			return lr.Profile, true
		}
		m.count("peer.misses")
		return nil, false
	}
	fp, wid, ok := negativa.SplitDetectHash(hash)
	if !ok {
		return nil, false
	}
	req := peerDetectRequest{
		InstallFP: fp, Identity: wid,
		Framework: hint.framework, TailLibs: hint.tailLibs,
		MaxSteps: hint.maxSteps, Spec: hint.spec,
	}
	var dr peerDetectResponse
	if err := m.postJSON(slot, owner, "/v1/peer/detect", req, &dr); err != nil || dr.Profile == nil || dr.Profile.RunResult == nil {
		m.count("peer.fallbacks")
		return nil, false
	}
	if !dr.Hit {
		// The owner had nothing memoized and executed the stage for us.
		m.count("peer.misses")
		m.count("peer.remote_execs")
	}
	m.count("peer.hits")
	return dr.Profile, true
}

// peerCompactExec executes a compact stage on its owning shard, shipping
// the library image inline (the owner may have never seen it).
func (m *StageMemo) peerCompactExec(slot plan.Executor, owner, hash string, lib *elfx.Library, hint *compactHint) (*negativa.LibDebloat, bool) {
	if base64.StdEncoding.EncodedLen(len(lib.Data)) > peerBodyLimit-(64<<10) {
		// The owner's body cap would bounce the request after we shipped
		// the whole image; don't marshal it just to be rejected — compute
		// locally (the margin covers the non-image request fields).
		m.count("peer.fallbacks")
		return nil, false
	}
	req := peerCompactRequest{
		Key: hash, LibName: lib.Name, LibDigest: digestHex(lib), Lib: lib.Data,
		UsedFuncs: hint.usedFuncs, UsedKernels: hint.usedKernels,
	}
	for _, a := range hint.archs {
		req.Archs = append(req.Archs, uint32(a))
	}
	var cr peerCompactResponse
	if err := m.postJSON(slot, owner, "/v1/peer/compact", req, &cr); err != nil {
		m.count("peer.fallbacks")
		return nil, false
	}
	ld, ok := decodePeerResult(lib, cr.Result, cr.Sparse)
	if !ok {
		m.count("peer.fallbacks")
		return nil, false
	}
	m.count("peer.hits")
	m.count("peer.remote_execs")
	return ld, true
}

// decodePeerResult rebuilds a locate+compact result from its wire form
// against the requester's live library.
func decodePeerResult(lib *elfx.Library, sr *storedResult, enc []byte) (*negativa.LibDebloat, bool) {
	if sr == nil || len(enc) == 0 || lib == nil {
		return nil, false
	}
	if sr.LibDigest != digestHex(lib) {
		return nil, false
	}
	sparse, err := negativa.DecodeSparseImage(lib, enc)
	if err != nil {
		return nil, false
	}
	return &negativa.LibDebloat{Report: sr.report(sparse), Analysis: time.Duration(sr.AnalysisNS)}, true
}

// FetchPeerObject imports one castore object from a peer into the local
// store (the generic replication path: restored-job materialization, warm
// pre-seeding). A response the exporter marked with the v2 sparse codec
// header is unframed, transcoded back to the canonical v1 encoding, and
// stored via Put — the disk form never depends on which codec crossed the
// wire. Returns the stored payload size.
func (s *Service) FetchPeerObject(c *cluster.Cluster, peer, kind, key string) (int64, error) {
	if s.store == nil {
		return 0, errors.New("dserve: no store attached")
	}
	rc, hdr, err := c.GetStreamHeader(peer, "/v1/peer/objects/"+kind+"/"+key)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	if kind == kindSparse && hdr.Get(SparseCodecHeader) == sparseCodecV2 {
		framed, err := io.ReadAll(io.LimitReader(rc, peerBodyLimit))
		if err != nil {
			return 0, fmt.Errorf("dserve: fetch %s/%s: %w", kind, key, err)
		}
		payload, err := castore.Unframe(framed)
		if err != nil {
			return 0, fmt.Errorf("dserve: fetch %s/%s: %w", kind, key, err)
		}
		enc, err := negativa.TranscodeSparseWire(payload, 1)
		if err != nil {
			return 0, fmt.Errorf("dserve: fetch %s/%s: %w", kind, key, err)
		}
		if err := s.store.Put(kind, key, enc); err != nil {
			return 0, err
		}
		s.Counters.Add("peer.objects_fetched", 1)
		return int64(len(enc)), nil
	}
	n, err := s.store.Import(kind, key, rc)
	if err != nil {
		return 0, err
	}
	s.Counters.Add("peer.objects_fetched", 1)
	return n, nil
}
