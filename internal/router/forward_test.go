package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sizelos/internal/tenancy"
)

// frontFor puts a router with one member, m at memberURL, behind a test
// server.
func frontFor(t *testing.T, memberURL string) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(Config{Members: []Member{{Name: "m", URL: memberURL}}, HealthInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	t.Cleanup(rt.Close)
	return rt, front
}

func (r *Router) idleTo(name string) int {
	c := r.members[name].client
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// waitFor polls cond until it holds, failing the test after d. It is for
// what no event announces: goroutines exiting after their peer closed.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, d)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRoutedMemberRestart: a member restarts on its address while the pool
// holds connections to its old process. The next GET answers 200 (a stale
// pooled connection is retried on a fresh dial); after a second restart so
// does the next POST, which reaches the member exactly once (it is never
// sent on a connection the member closed, and never sent twice).
func TestRoutedMemberRestart(t *testing.T) {
	var posts atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost {
			posts.Add(1)
		}
		tenancy.WriteJSON(w, http.StatusOK, map[string]string{"method": req.Method})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer func() { srv.Close() }()
	rt, front := frontFor(t, "http://"+addr)

	// restart leaves four pooled connections to the process it stops.
	restart := func() {
		t.Helper()
		done := make(chan error, 4)
		for range 4 {
			go func() {
				ex, err := doErr(front.URL, http.MethodGet, "/v1/t/search", "")
				if err == nil && ex.status != http.StatusOK {
					err = fmt.Errorf("warm-up GET: %d %s", ex.status, ex.body)
				}
				done <- err
			}()
		}
		for range 4 {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		if n := rt.idleTo("m"); n == 0 {
			t.Fatal("no pooled connection to the old process")
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("restart on %s: %v", addr, err)
		}
		srv = &http.Server{Handler: handler}
		go srv.Serve(ln)
	}
	restart()
	if ex := do(t, front.URL, http.MethodGet, "/v1/t/search", ""); ex.status != http.StatusOK || ex.node != "m" {
		t.Fatalf("GET after the restart: %d on %q: %s", ex.status, ex.node, ex.body)
	}
	restart()
	if ex := do(t, front.URL, http.MethodPost, "/v1/t/tuples", `{"inserts":[]}`); ex.status != http.StatusOK {
		t.Fatalf("POST after the restart: %d %s", ex.status, ex.body)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("the member counted the POST %d times, want once", n)
	}
}

// TestRoutedClientCancel: a client that leaves mid-request cancels the
// member handler's context through the router.
func TestRoutedClientCancel(t *testing.T) {
	entered, canceled, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		close(entered)
		select {
		case <-req.Context().Done():
			close(canceled)
		case <-release: // the test failed: let the servers close
		}
	}))
	defer member.Close()
	defer close(release)
	_, front := frontFor(t, member.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/v1/t/search", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached the member")
	}
	cancel()
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("the member handler's context outlived the client by 5s")
	}
	if err := <-errc; err == nil {
		t.Fatal("the canceled request answered")
	}
}

// TestRoutedGoroutineCensus: the hop runs on the handler's goroutine. After
// 200 routed requests, with the test client's idle connections closed, no
// net/http client connection goroutine is left, and no more goroutines than
// before the requests.
func TestRoutedGoroutineCensus(t *testing.T) {
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		tenancy.WriteJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
	}))
	defer member.Close()
	_, front := frontFor(t, member.URL)
	client := &http.Client{Transport: &http.Transport{}}
	get := func() {
		t.Helper()
		resp, err := client.Get(front.URL + "/v1/t/search")
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("routed GET: %d %v", resp.StatusCode, err)
		}
	}
	clientConns := func() int {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		return strings.Count(stacks, "net/http.(*persistConn).readLoop") + strings.Count(stacks, "net/http.(*persistConn).writeLoop")
	}
	http.DefaultClient.CloseIdleConnections() // other tests' connections
	get()                                     // the member connection the router keeps
	client.CloseIdleConnections()
	waitFor(t, 5*time.Second, "client connection goroutines after the warm-up", func() bool { return clientConns() == 0 })
	baseline := runtime.NumGoroutine()
	for range 200 {
		get()
	}
	client.CloseIdleConnections()
	waitFor(t, 5*time.Second, "goroutines back to the baseline", func() bool {
		return clientConns() == 0 && runtime.NumGoroutine() <= baseline
	})
}

// TestRoutedOversizedTuples: a 2 MiB mutation body through the router
// answers the node's 413 too_large, attributed to the owner, and never
// reaches it.
func TestRoutedOversizedTuples(t *testing.T) {
	var seen atomic.Int64
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		seen.Add(1)
		_, _ = io.Copy(io.Discard, req.Body)
		w.WriteHeader(http.StatusOK)
	}))
	defer member.Close()
	_, front := frontFor(t, member.URL)
	ex := do(t, front.URL, http.MethodPost, "/v1/t/tuples", strings.Repeat("x", 2<<20))
	var env tenancy.ErrorResponse
	if err := json.Unmarshal([]byte(ex.body), &env); err != nil || ex.status != http.StatusRequestEntityTooLarge || env.Error.Code != tenancy.CodeTooLarge {
		t.Fatalf("2 MiB POST = %d %s, want 413 %s", ex.status, ex.body, tenancy.CodeTooLarge)
	}
	if ex.node != "m" {
		t.Fatalf("413 attributed to %q, want m", ex.node)
	}
	if n := seen.Load(); n != 0 {
		t.Fatalf("the member saw %d oversized requests", n)
	}
}

// reverseProxyFront is the relay the router used before its member client:
// httputil.ReverseProxy over a Transport that leaves bodies as they came.
func reverseProxyFront(t *testing.T, memberURL string) *httptest.Server {
	t.Helper()
	u, err := url.Parse(memberURL)
	if err != nil {
		t.Fatal(err)
	}
	p := httputil.NewSingleHostReverseProxy(u)
	p.Transport = &http.Transport{DisableCompression: true}
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return front
}

// TestRoutedFraming: a member answering chunked, with Connection: close or
// with a 204 reaches the client with the status, non-hop headers and body
// httputil.ReverseProxy relays; the connection of a streamed or
// Connection: close answer is not pooled, a 204's is.
func TestRoutedFraming(t *testing.T) {
	for _, tc := range []struct {
		name   string
		handle func(w http.ResponseWriter)
		pooled int
	}{
		{"chunked", func(w http.ResponseWriter) {
			w.Header().Set("X-Member", "chunks")
			w.Header().Set("Keep-Alive", "timeout=5")
			for i := range 3 {
				fmt.Fprintf(w, "part %d;", i)
				w.(http.Flusher).Flush()
			}
		}, 0},
		{"close", func(w http.ResponseWriter) {
			w.Header().Set("Connection", "close")
			w.Header().Set("X-Member", "closing")
			w.Header().Set("Content-Length", "5")
			_, _ = w.Write([]byte("bye!\n"))
		}, 0},
		{"no content", func(w http.ResponseWriter) {
			w.Header().Set("X-Member", "empty")
			w.WriteHeader(http.StatusNoContent)
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { tc.handle(w) }))
			defer member.Close()
			rt, routed := frontFor(t, member.URL)
			oracle := reverseProxyFront(t, member.URL)
			got := fetch(t, routed.URL+"/v1/t/search")
			want := fetch(t, oracle.URL+"/v1/t/search")
			if got.Header.Get(NodeHeader) != "m" {
				t.Errorf("%s header %q, want m", NodeHeader, got.Header.Get(NodeHeader))
			}
			got.Header.Del(NodeHeader)
			if got.StatusCode != want.StatusCode || got.body != want.body || !reflect.DeepEqual(got.Header, want.Header) ||
				!reflect.DeepEqual(got.TransferEncoding, want.TransferEncoding) {
				t.Errorf("routed %d %v %q %v, ReverseProxy %d %v %q %v", got.StatusCode, got.Header, got.body, got.TransferEncoding,
					want.StatusCode, want.Header, want.body, want.TransferEncoding)
			}
			if n := rt.idleTo("m"); n != tc.pooled {
				t.Errorf("%d pooled member connections after the answer, want %d", n, tc.pooled)
			}
		})
	}
}

type fetched struct {
	*http.Response
	body string
}

// fetch GETs url on a fresh connection and returns the answer without its
// Date header, which differs by the second.
func fetch(t *testing.T, url string) fetched {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Header.Del("Date")
	return fetched{resp, string(b)}
}

// fakeMember answers every request on a loopback listener with the bytes
// of the current answer. With keep it then holds the connection open until
// the peer closes it — so a pooled connection stays pooled — else it closes
// it, as a member whose answer ends there would.
type fakeMember struct {
	ln     net.Listener
	answer atomic.Pointer[fakeAnswer]
}

type fakeAnswer struct {
	raw  []byte
	keep bool
}

func newFakeMember(tb testing.TB) *fakeMember {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	fm := &fakeMember{ln: ln}
	tb.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go fm.serve(conn)
		}
	}()
	return fm
}

func (fm *fakeMember) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		if line == "\r\n" {
			break
		}
	}
	ans := fm.answer.Load()
	if _, err := conn.Write(ans.raw); err != nil || !ans.keep {
		return
	}
	_, _ = io.Copy(io.Discard, br)
}

// headWatch is a recorder that notes whether the head was written.
type headWatch struct {
	*httptest.ResponseRecorder
	wrote bool
}

func (h *headWatch) WriteHeader(code int) {
	h.wrote = true
	h.ResponseRecorder.WriteHeader(code)
}

// FuzzMemberResponse feeds the forwarder arbitrary member answers. It must
// return within a second without a panic — http.ErrAbortHandler after the
// head is the one allowed, the way a relay aborts a response it cannot
// finish — and pool the connection only after a whole answer of known
// length that leaves no byte unread and does not ask to close. An answer
// that http.ReadResponse accepts with a known length and a final status
// reaches the client with the status, body and non-hop headers
// httputil.ReverseProxy relays: the relay the forwarder replaced stays here
// as its oracle. (A 1xx ReverseProxy relays as an interim answer; the
// forwarder answers 502.)
func FuzzMemberResponse(f *testing.F) {
	fm := newFakeMember(f)
	memberURL := "http://" + fm.ln.Addr().String()
	rt, err := New(Config{Members: []Member{{Name: "m", URL: memberURL}}, HealthInterval: -1, Logf: func(string, ...any) {}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(rt.Close)
	mem := rt.members["m"]
	u, _ := url.Parse(memberURL)
	oracle := httputil.NewSingleHostReverseProxy(u)
	oracle.Transport = &http.Transport{DisableKeepAlives: true, DisableCompression: true}
	oracle.ErrorLog = log.New(io.Discard, "", 0)
	const target = "http://router/v1/t/search?q=x"

	f.Fuzz(func(t *testing.T, raw []byte) {
		// The answer as a client would parse it: whole, of known length,
		// with what is left after it.
		rd := bytes.NewReader(raw)
		br := bufio.NewReader(rd)
		resp, err := http.ReadResponse(br, httptest.NewRequest(http.MethodGet, target, nil))
		whole, reusable := false, false
		if err == nil && resp.StatusCode >= 200 && (resp.ContentLength >= 0 || resp.Body == http.NoBody) {
			_, err := io.ReadAll(resp.Body)
			whole = err == nil
			reusable = whole && !resp.Close && br.Buffered()+rd.Len() == 0 && resp.ContentLength <= maxBuffered
		}
		fm.answer.Store(&fakeAnswer{raw: raw, keep: whole})

		rec := &headWatch{ResponseRecorder: httptest.NewRecorder()}
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			rt.forward(rec, httptest.NewRequest(http.MethodGet, target, nil), mem, nil)
		}()
		select {
		case p := <-done:
			if p != nil && (p != http.ErrAbortHandler || !rec.wrote) {
				t.Fatalf("forward panicked: %v", p)
			}
		case <-time.After(time.Second):
			t.Fatalf("forward still running after 1s on %q", raw)
		}
		pooled := rt.idleTo("m")
		mem.client.closeIdle(false)
		if pooled > 0 && !reusable {
			t.Fatalf("pooled the connection after %q", raw)
		}
		if reusable && pooled == 0 {
			t.Fatalf("did not pool the connection after the whole answer %q", raw)
		}
		if !whole {
			return
		}
		want := httptest.NewRecorder()
		oracle.ServeHTTP(want, httptest.NewRequest(http.MethodGet, target, nil))
		got := rec.Result()
		if got.Header.Get(NodeHeader) != "m" {
			t.Fatalf("answer to %q lacks %s", raw, NodeHeader)
		}
		got.Header.Del(NodeHeader)
		if got.StatusCode != want.Code || rec.Body.String() != want.Body.String() || !reflect.DeepEqual(got.Header, want.Result().Header) {
			t.Fatalf("answer %q: forwarded %d %v %q, ReverseProxy %d %v %q", raw,
				got.StatusCode, got.Header, rec.Body.String(), want.Code, want.Result().Header, want.Body.String())
		}
	})
}
