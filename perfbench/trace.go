package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authorityflow/internal/obs"
)

// span is one timed crossing of a layer boundary, recorded by the
// benchmark's own wrappers. Spans of one request share its
// X-Request-ID.
type span struct {
	layer  string // "router", "replica0", "replica1" or "upstream"
	path   string
	query  string
	id     string
	start  time.Time
	end    time.Time
	bytes  int64
	status int
}

func (s span) dur() float64 { return ms(s.end.Sub(s.start)) }

// tracer keeps spans in memory while on. Wrappers stay installed when
// it is off and then cost one atomic load per request.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// wrapHandler records one span per request served by h.
func (t *tracer) wrapHandler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		t.add(span{layer: layer, path: r.URL.Path, query: r.URL.RawQuery, id: r.Header.Get(obs.RequestIDHeader),
			start: start, end: time.Now(), bytes: cw.n, status: cw.status})
	})
}

// recordingTransport records the router's upstream calls; a call ends
// when its body has been read and closed.
type recordingTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (t *tracer) wrapTransport(next http.RoundTripper) http.RoundTripper {
	return &recordingTransport{t: t, next: next}
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.on.Load() {
		return rt.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := rt.next.RoundTrip(req)
	s := span{layer: "upstream", path: req.URL.Path, query: req.URL.RawQuery,
		id: obs.RequestIDFrom(req.Context()), start: start}
	if err != nil {
		s.end = time.Now()
		rt.t.add(s)
		return nil, err
	}
	s.status = resp.StatusCode
	resp.Body = &recordingBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

type recordingBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *recordingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.bytes += int64(n)
	return n, err
}

func (b *recordingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = time.Now()
		b.t.add(b.s)
	})
	return err
}

// ---- Prometheus text ----

// promValues parses the unlabelled samples and label-summed totals of
// a Prometheus text exposition: name → value, where a labelled family
// contributes the sum over its label sets.
func promValues(text []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			if strings.Contains(name, "le=\"") {
				continue // histogram bucket
			}
			name = name[:j]
		}
		out[name] += v
	}
	return out
}
