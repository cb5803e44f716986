package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/dserve"
)

// node is one booted serving node: a castore data dir, the service, and
// (for HTTP workloads) its handler on a loopback listener.
type node struct {
	id    string
	store *castore.Store
	svc   *dserve.Service
	srv   *http.Server
	url   string
}

type nodeConfig struct {
	dir        string
	ingestRoot string
	cacheBytes int64
	maxJobs    int
	serve      bool // listen on loopback
}

func bootNode(id string, cfg nodeConfig, tr *tracer) (*node, error) {
	st, err := castore.Open(cfg.dir, castore.Options{})
	if err != nil {
		return nil, err
	}
	n := &node{id: id, store: st}
	n.svc = dserve.NewService(dserve.Config{
		Store: st, IngestRoot: cfg.ingestRoot, CacheBytes: cfg.cacheBytes, MaxJobs: cfg.maxJobs, MaxSteps: maxSteps,
	})
	if cfg.serve {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			n.close()
			return nil, err
		}
		n.url = "http://" + ln.Addr().String()
		n.srv = &http.Server{Handler: tr.wrapHandler(id, dserve.NewHandler(n.svc), n.svc)}
		go n.srv.Serve(ln)
	}
	return n, nil
}

// attach joins the nodes into one ring with default replica sets.
func attachRing(nodes []*node, tr *tracer) {
	urls := map[string]string{}
	for _, n := range nodes {
		urls[n.id] = n.url
	}
	for _, n := range nodes {
		n.svc.AttachCluster(cluster.New(n.id, urls, cluster.Options{
			Counters: n.svc.Counters, Timings: n.svc.Timings, Client: tr.peerClient(n.id),
		}))
	}
}

func (n *node) close() {
	if n.srv != nil {
		n.srv.Close()
	}
	if n.svc != nil {
		n.svc.Close()
	}
	n.store.Close()
}

// counters sums the named counters over the nodes.
func counters(nodes []*node) map[string]int64 {
	out := map[string]int64{}
	for _, n := range nodes {
		for k, v := range n.svc.Counters.Snapshot() {
			out[k] += v
		}
	}
	return out
}

func storeStats(nodes []*node) castore.Stats {
	var s castore.Stats
	for _, n := range nodes {
		st := n.store.Stats()
		s.Puts += st.Puts
		s.Hits += st.Hits
		s.Bytes += st.Bytes
	}
	return s
}

// ---- HTTP client side ----

// newClient is a load-generator client that never holds more than conns
// connections open at once, across all hosts. Callers keep at most one
// request in flight per goroutine and use at most conns goroutines, so
// when every slot is taken at least one open connection is idle: a new dial
// closes idle connections until a slot frees.
func newClient(conns int) *http.Client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		IdleConnTimeout:     30 * time.Second,
	}
	slots := make(chan struct{}, conns)
	var d net.Dialer
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		for acquired := false; !acquired; {
			select {
			case slots <- struct{}{}:
				acquired = true
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
				t.CloseIdleConnections()
			}
		}
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			<-slots
			return nil, err
		}
		return &slotConn{Conn: c, release: func() { <-slots }}, nil
	}
	return &http.Client{Transport: t}
}

// slotConn gives its connection slot back when closed.
type slotConn struct {
	net.Conn
	once    sync.Once
	release func()
}

func (c *slotConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.release)
	return err
}

type httpStatusError struct {
	code int
	body string
}

func (e *httpStatusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

func doJSON(c *http.Client, method, u string, in any, hdr map[string]string, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, u, body)
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &httpStatusError{code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// submitHTTP posts a job and returns its ID.
func submitHTTP(c *http.Client, base string, req dserve.JobRequest) (string, error) {
	var st struct {
		ID string `json:"id"`
	}
	if err := doJSON(c, http.MethodPost, base+"/v1/jobs", req, nil, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// awaitHTTP long-polls the job's event stream until its terminal event and
// returns the terminal state.
func awaitHTTP(c *http.Client, base, id string, deadline time.Time) (string, error) {
	after := -1
	for {
		left := time.Until(deadline)
		if left <= 0 {
			return "", errors.New("timed out waiting for the job")
		}
		var page struct {
			Events []dserve.JobEvent `json:"events"`
			Done   bool              `json:"done"`
		}
		u := base + "/v1/jobs/" + url.PathEscape(id) + "/events?after=" + strconv.Itoa(after) +
			"&timeout_ms=" + strconv.FormatInt(min(left.Milliseconds()+1, 60000), 10)
		if err := doJSON(c, http.MethodGet, u, nil, nil, &page); err != nil {
			return "", err
		}
		for _, ev := range page.Events {
			after = ev.Seq
			if ev.Terminal {
				if ev.State != dserve.JobDone {
					return ev.State, fmt.Errorf("job %s: %s", ev.State, ev.Error)
				}
				return ev.State, nil
			}
		}
		if page.Done {
			return "", errors.New("event stream ended without a terminal event")
		}
	}
}

// httpReport is the part of a job report the checks read.
type httpReport struct {
	InstallFP string `json:"install_fingerprint"`
	Workloads []struct {
		Name     string `json:"name"`
		Verified bool   `json:"verified"`
	} `json:"workloads"`
	Libs []libSig `json:"libs"`
}

func (r *httpReport) verified() bool {
	if len(r.Workloads) == 0 {
		return false
	}
	for _, w := range r.Workloads {
		if !w.Verified {
			return false
		}
	}
	return true
}

func fetchReport(c *http.Client, base, id string) (*httpReport, error) {
	var rep httpReport
	err := doJSON(c, http.MethodGet, base+"/v1/jobs/"+url.PathEscape(id)+"/report", nil, nil, &rep)
	return &rep, err
}

// awaitLocal waits on the in-process event channel for the terminal event.
func awaitLocal(ctx context.Context, src eventSource, id string) (dserve.JobEvent, error) {
	after := -1
	for {
		evs, done, ch, err := src.JobEvents(id, after)
		if err != nil {
			return dserve.JobEvent{}, err
		}
		for _, ev := range evs {
			after = ev.Seq
			if ev.Terminal {
				return ev, nil
			}
		}
		if done {
			return dserve.JobEvent{}, errors.New("event stream ended without a terminal event")
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return dserve.JobEvent{}, errors.New("timed out waiting for the job")
		}
	}
}
