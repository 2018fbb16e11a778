package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Wire accounting from outside the program: a wrapper around each
// in-process server handler and one around the client's transport.
// Both pass requests straight through until a traced pass switches
// them on.

// serverWire counts what one server sent.
type serverWire struct {
	on          atomic.Bool
	submits     atomic.Int64 // POST /v1/jobs
	results     atomic.Int64 // GET /v1/jobs/{id}/result
	resultBytes atomic.Int64
	ttfbNanos   atomic.Int64 // result handler entry to first body write
	streamLines atomic.Int64 // ND-JSON lines of /stream responses
	bytes       atomic.Int64 // every response body
}

type wireHandler struct {
	next http.Handler
	st   *serverWire
}

func (h wireHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.st.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w, start: time.Now()}
	h.next.ServeHTTP(cw, r)
	h.st.bytes.Add(cw.n)
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		h.st.submits.Add(1)
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/result"):
		h.st.results.Add(1)
		h.st.resultBytes.Add(cw.n)
		if !cw.first.IsZero() {
			h.st.ttfbNanos.Add(int64(cw.first.Sub(cw.start)))
		}
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/stream"):
		h.st.streamLines.Add(cw.lines)
	}
}

// countingWriter counts body bytes and lines and stamps the first
// write. It forwards Flush, which the streaming endpoint needs.
type countingWriter struct {
	http.ResponseWriter
	start, first time.Time
	n, lines     int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	w.n += int64(len(p))
	w.lines += int64(bytes.Count(p, []byte{'\n'}))
	return w.ResponseWriter.Write(p)
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// opWire carries the client-side timestamps of one op; the op puts it
// in the context its calls run under.
type opWire struct {
	resultFirstByte time.Time
}

type opWireKey struct{}

func withOpWire(ctx context.Context, ow *opWire) context.Context {
	return context.WithValue(ctx, opWireKey{}, ow)
}

// wireTransport stamps the arrival of the first byte of a result
// body, so the client's decode time can be told from the server's
// encode time.
type wireTransport struct {
	base http.RoundTripper
	on   *atomic.Bool
}

func (t wireTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil || !t.on.Load() || !strings.HasSuffix(req.URL.Path, "/result") {
		return resp, err
	}
	if ow, ok := req.Context().Value(opWireKey{}).(*opWire); ok {
		resp.Body = &firstByteBody{ReadCloser: resp.Body, ow: ow}
	}
	return resp, nil
}

type firstByteBody struct {
	io.ReadCloser
	ow *opWire
}

func (b *firstByteBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && b.ow.resultFirstByte.IsZero() {
		b.ow.resultFirstByte = time.Now()
	}
	return n, err
}
