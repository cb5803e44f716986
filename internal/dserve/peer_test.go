package dserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/elfx"
	"negativaml/internal/mlframework"
	"negativaml/internal/negativa"
)

// soloCluster attaches a single-node cluster to the service so its peer
// routes answer (they 404 on non-clustered nodes); an empty peer map makes
// a self-only ring, so stage routing is unchanged.
func soloCluster(svc *Service) {
	svc.AttachCluster(cluster.New("solo", nil, cluster.Options{}))
}

func postPeer(t *testing.T, srv *httptest.Server, path string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestPeerLookupMissesAndRejections: misses are found=false successes,
// unroutable stages are 400s.
func TestPeerLookupMissesAndRejections(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	var lr peerLookupResponse
	if code := postPeer(t, srv, "/v1/peer/lookup", peerLookupRequest{Stage: negativa.StageCompact, Hash: "nope"}, &lr); code != http.StatusOK {
		t.Fatalf("lookup miss status %d", code)
	}
	if lr.Found {
		t.Fatal("lookup invented a result")
	}
	if code := postPeer(t, srv, "/v1/peer/lookup", peerLookupRequest{Stage: negativa.StageDetect, Hash: "no-separator"}, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed detect hash status %d", code)
	}
	if code := postPeer(t, srv, "/v1/peer/lookup", peerLookupRequest{Stage: "union", Hash: "x"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unroutable stage status %d", code)
	}
}

// TestPeerCompactRejectsMismatches: a shipped library whose digest or
// derived stage key disagrees with the request must be refused — a
// confused requester cannot poison the owning shard's memo.
func TestPeerCompactRejectsMismatches(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	lib := in.Library(in.LibNames[0])

	req := peerCompactRequest{
		Key: "0000", LibName: lib.Name, LibDigest: "wrong-digest", Lib: lib.Data,
	}
	if code := postPeer(t, srv, "/v1/peer/compact", req, nil); code != http.StatusBadRequest {
		t.Fatalf("digest mismatch status %d", code)
	}
	req.LibDigest = digestHex(lib)
	if code := postPeer(t, srv, "/v1/peer/compact", req, nil); code != http.StatusBadRequest {
		t.Fatalf("key mismatch status %d", code)
	}
	req.Lib = []byte("not an elf")
	if code := postPeer(t, srv, "/v1/peer/compact", req, nil); code != http.StatusBadRequest {
		t.Fatalf("unparsable library status %d", code)
	}
}

// TestPeerCompactSharesHeldImage: compacts of one shipped library under
// distinct keys pin the one image the cache already holds for its digest,
// not a decoded copy each — the cache charges an image once, so it must
// hold it once too.
func TestPeerCompactSharesHeldImage(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	lib := in.Library(in.LibNames[0])
	if len(lib.Funcs) < 4 {
		t.Fatalf("%s has %d functions, want 4", lib.Name, len(lib.Funcs))
	}
	var held *elfx.Library
	for k := 1; k <= 4; k++ {
		var used []string
		for _, f := range lib.Funcs[:k] {
			used = append(used, f.Name)
		}
		key := negativa.CompactKey(negativa.LocateKey(lib, used, nil, nil)).Hash
		req := peerCompactRequest{Key: key, LibName: lib.Name, LibDigest: digestHex(lib), Lib: lib.Data, UsedFuncs: used}
		if code := postPeer(t, srv, "/v1/peer/compact", req, nil); code != http.StatusOK {
			t.Fatalf("compact %d status %d", k, code)
		}
		ld, ok := svc.Cache.Get(key)
		if !ok || ld.Report.Sparse == nil {
			t.Fatalf("compact %d left no sparse result in the cache", k)
		}
		got := ld.Report.Sparse.Lib()
		if held == nil {
			held = got
		}
		if got != held {
			t.Fatalf("compact %d pins its own copy of %s", k, lib.Name)
		}
		if !bytes.Equal(got.Data, lib.Data) {
			t.Fatalf("compact %d pins different bytes", k)
		}
	}
	if n := svc.Cache.Len(); n != 4 {
		t.Fatalf("cache holds %d entries, want 4", n)
	}
}

// TestPeerDetectMismatches: a fingerprint the owner cannot reproduce (or
// an identity the spec does not resolve to) must be refused, not papered
// over with a wrong profile.
func TestPeerDetectMismatches(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	req := peerDetectRequest{
		InstallFP: "not-a-real-fingerprint", Identity: "whatever",
		Framework: "pytorch", TailLibs: 2, MaxSteps: 2,
		Spec: WorkloadSpec{Model: "MobileNetV2", Batch: 1},
	}
	if code := postPeer(t, srv, "/v1/peer/detect", req, nil); code != http.StatusConflict {
		t.Fatalf("fingerprint mismatch status %d", code)
	}
	if code := postPeer(t, srv, "/v1/peer/detect", peerDetectRequest{Framework: "no-such", Spec: req.Spec}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad framework status %d", code)
	}

	// A correct fingerprint with a wrong identity is still refused.
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	req.InstallFP = InstallFingerprint(in)
	if code := postPeer(t, srv, "/v1/peer/detect", req, nil); code != http.StatusBadRequest {
		t.Fatalf("identity mismatch status %d", code)
	}
}

// TestPeerDetectExecutesAndRegisters: a well-formed remote detect runs on
// the owner and lands in its registry, so the next call is a hit.
func TestPeerDetectExecutesAndRegisters(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := WorkloadSpec{Model: "MobileNetV2", Batch: 1}
	wl, err := spec.Workload(in)
	if err != nil {
		t.Fatal(err)
	}
	req := peerDetectRequest{
		InstallFP: InstallFingerprint(in),
		Identity:  WorkloadIdentity(wl, 2),
		Framework: "pytorch", TailLibs: 2, MaxSteps: 2, Spec: spec,
	}
	var dr peerDetectResponse
	if code := postPeer(t, srv, "/v1/peer/detect", req, &dr); code != http.StatusOK {
		t.Fatalf("detect status %d", code)
	}
	if dr.Hit || dr.Profile == nil || dr.Profile.RunResult == nil {
		t.Fatalf("first detect should execute: %+v", dr)
	}
	var dr2 peerDetectResponse
	if code := postPeer(t, srv, "/v1/peer/detect", req, &dr2); code != http.StatusOK {
		t.Fatalf("second detect status %d", code)
	}
	if !dr2.Hit {
		t.Fatal("owner did not memoize the executed detect stage")
	}
}

// TestFetchPeerObject moves a castore object between two nodes through the
// streaming route, end-to-end integrity-checked.
func TestFetchPeerObject(t *testing.T) {
	stA, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	svcA := NewService(Config{Workers: 1, Store: stA})
	defer svcA.Close()
	soloCluster(svcA)
	srvA := httptest.NewServer(NewHandler(svcA))
	defer srvA.Close()

	stB, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	svcB := NewService(Config{Workers: 1, Store: stB})
	defer svcB.Close()

	payload := bytes.Repeat([]byte("obj"), 4096)
	if err := stA.Put("lib", "deadbeef", payload); err != nil {
		t.Fatal(err)
	}

	c := cluster.New("b", map[string]string{"a": srvA.URL}, cluster.Options{Timeout: 10 * time.Second})
	n, err := svcB.FetchPeerObject(c, "a", "lib", "deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("fetched %d bytes, want %d", n, len(payload))
	}
	got, ok := stB.Get("lib", "deadbeef")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("fetched object does not round-trip")
	}
	if _, err := svcB.FetchPeerObject(c, "a", "lib", "missing"); err == nil {
		t.Fatal("fetching an absent object must fail")
	}
}

// TestPeerRoutesRequireCluster: the peer surface is node-to-node only —
// on a non-clustered node every peer route answers 404 so a standalone
// deployment exposes no analysis-compute or object-transfer endpoints.
func TestPeerRoutesRequireCluster(t *testing.T) {
	svc := NewService(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	if code := postPeer(t, srv, "/v1/peer/lookup", peerLookupRequest{Stage: negativa.StageCompact, Hash: "x"}, nil); code != http.StatusNotFound {
		t.Fatalf("lookup without a cluster: status %d, want 404", code)
	}
	resp, err := http.Get(srv.URL + "/v1/peer/objects/lib/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("object fetch without a cluster: status %d, want 404", resp.StatusCode)
	}
}

// TestPeerSecretEnforced: a cluster configured with a shared secret
// refuses peer requests without it (constant-time compare, 401), accepts
// them with it, and the cluster transport attaches it automatically.
func TestPeerSecretEnforced(t *testing.T) {
	svc := NewService(Config{Workers: 1, MaxSteps: 2})
	defer svc.Close()
	svc.AttachCluster(cluster.New("solo", nil, cluster.Options{Secret: "ring-credential"}))
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	body, _ := json.Marshal(peerLookupRequest{Stage: negativa.StageCompact, Hash: "nope"})
	do := func(secret string) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/peer/lookup", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if secret != "" {
			req.Header.Set(cluster.PeerSecretHeader, secret)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := do(""); code != http.StatusUnauthorized {
		t.Fatalf("no secret: status %d, want 401", code)
	}
	if code := do("wrong"); code != http.StatusUnauthorized {
		t.Fatalf("wrong secret: status %d, want 401", code)
	}
	if code := do("ring-credential"); code != http.StatusOK {
		t.Fatalf("correct secret: status %d, want 200", code)
	}

	// The cluster client carries the secret on its own requests: a peer
	// configured with the matching secret can call through PostJSON ...
	peerOK := cluster.New("b", map[string]string{"a": srv.URL}, cluster.Options{Secret: "ring-credential"})
	var lr peerLookupResponse
	if err := peerOK.PostJSON("a", "/v1/peer/lookup", peerLookupRequest{Stage: negativa.StageCompact, Hash: "nope"}, &lr); err != nil {
		t.Fatalf("peer with matching secret: %v", err)
	}
	// ... and one with no (or the wrong) secret is refused.
	peerBad := cluster.New("b", map[string]string{"a": srv.URL}, cluster.Options{})
	if err := peerBad.PostJSON("a", "/v1/peer/lookup", peerLookupRequest{Stage: negativa.StageCompact, Hash: "nope"}, &lr); err == nil {
		t.Fatal("peer without the secret was accepted")
	}
}
