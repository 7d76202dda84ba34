package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/router"
	"authorityflow/internal/server"
	"authorityflow/internal/storage"
)

// The serving-path defaults of cmd/afqserver that keep the
// bit-identity contract: serial kernel, 64 MiB cache, prewarm 8, no
// admission limit, no tiling, float32 prewarm off, DeltaEps 0.
const (
	replicaCacheBytes = 64 << 20
	replicaPrewarm    = 8
	numReplicas       = 2
)

func replicaConfig() core.Config { return core.Config{} }

// replica is one in-process afqserver: a cache- and profile-enabled
// server cold-started from the snapshot file, on a loopback listener.
type replica struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// fleet is the serving stack under test: two replicas behind one
// router, all talking loopback HTTP inside this process.
type fleet struct {
	replicas []*replica
	rt       *router.Router
	rhs      *http.Server
	rdone    chan struct{}
	url      string
	byURL    map[string]*replica
	upstream *http.Transport
}

// serveOn starts h on a fresh loopback listener.
func serveOn(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

// startFleet cold-starts both replicas from snapPath, then the router.
// tr, when non-nil, wraps every replica handler, the router handler and
// the router's upstream transport with span recorders.
func startFleet(snapPath, workDir string, tr *tracer, tap func(version uint64, vector []float64)) (*fleet, error) {
	f := &fleet{byURL: make(map[string]*replica)}
	urls := make([]string, 0, numReplicas)
	for i := 0; i < numReplicas; i++ {
		ds, ix, err := storage.ReadSnapshotFile(snapPath)
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		profDir := filepath.Join(workDir, fmt.Sprintf("profiles-%d-%d", i, time.Now().UnixNano()))
		if err := os.MkdirAll(profDir, 0o755); err != nil {
			f.stop()
			return nil, err
		}
		s, err := server.NewWithIndex(ds, ix, replicaConfig(),
			server.WithCache(replicaCacheBytes, replicaPrewarm),
			server.WithProfiles(profDir, 0))
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		var h http.Handler = s.Handler()
		if tr != nil {
			h = tr.wrapHandler(fmt.Sprintf("replica%d", i), h)
		}
		hs, u, done, err := serveOn(h)
		if err != nil {
			s.Close()
			f.stop()
			return nil, err
		}
		rp := &replica{srv: s, hs: hs, url: u, done: done}
		f.replicas = append(f.replicas, rp)
		f.byURL[u] = rp
		urls = append(urls, u)
	}
	f.upstream = newTransport()
	var rtrip http.RoundTripper = &ratesTap{next: f.upstream, record: tap}
	if tr != nil {
		rtrip = tr.wrapTransport(rtrip)
	}
	rt, err := router.New(urls, router.Options{HTTPClient: &http.Client{Transport: rtrip}})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.rt = rt
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.wrapHandler("router", h)
	}
	f.rhs, f.url, f.rdone, err = serveOn(h)
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop shuts the router and replicas down and waits for every serving
// goroutine to exit.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.rhs != nil {
		_ = f.rhs.Shutdown(ctx)
		<-f.rdone
	}
	if f.rt != nil {
		f.rt.Close()
	}
	if f.upstream != nil {
		f.upstream.CloseIdleConnections()
	}
	for _, r := range f.replicas {
		_ = r.hs.Shutdown(ctx)
		<-r.done
		r.srv.Close()
	}
}

// newTransport is the loopback transport shared by the generator and
// the router's upstream client: keep-alive pools large enough that no
// request of the two-connection generator has to redial.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// replicaGet fetches path from one replica directly (bypassing the
// router) and returns the body.
func replicaGet(c *http.Client, base, path string) ([]byte, error) {
	resp, err := c.Get(base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: status %d", base, path, resp.StatusCode)
	}
	return b, nil
}

// ratesTap records every (version, rate vector) pair the router reads
// from or publishes to a replica. Writes go through the router one at a
// time and each ends with the router reading the new rates back, so the
// tap sees every version the fleet serves; the checker needs the vector
// behind each version an answer reports.
type ratesTap struct {
	next   http.RoundTripper
	record func(version uint64, vector []float64)
}

func (t *ratesTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/rates" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var rr server.RatesResponse
	if json.Unmarshal(body, &rr) == nil && rr.Version > 0 {
		t.record(rr.Version, rr.Vector)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}
