package router

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sizelos/internal/tenancy"
)

const (
	// idleConns is the idle connections kept per member: twice the four
	// clients TestRoutedConnectionReuse runs through one member at once with
	// no redial allowed, for the probes and tenant-index calls besides.
	idleConns = 8
	// maxBuffered caps an answer relayed in one Write, and a pooled buffer.
	maxBuffered = 1 << 20
)

// memberClient talks HTTP/1.1 to one member over keep-alive connections it
// pools itself, each exchange on the caller's goroutine.
type memberClient struct {
	addr   string
	mu     sync.Mutex
	idle   []*memberConn
	closed bool
}

// memberConn is a member connection. context.AfterFunc runs abort when the
// context of the exchange in progress ends; stop unregisters it.
type memberConn struct {
	net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	abort func()
	stop  func() bool
}

// roundTrip sends one request and reads its answer's head; the caller reads
// the body, then calls done. A write that fails, or an answer of which no
// byte arrives, on a pooled connection means the member closed it (likely
// with its neighbours): a replayable request (GET, HEAD) is retried once on
// a fresh dial. Any other is never written twice, and takes a pooled
// connection only if idleAlive vouches for it.
func (c *memberClient) roundTrip(ctx context.Context, req *http.Request, method, path, query string, h http.Header, body []byte) (*http.Response, *memberConn, error) {
	replayable := method == http.MethodGet || method == http.MethodHead
	for pooled := true; ; pooled = false {
		var mc *memberConn
		c.mu.Lock()
		for pooled && mc == nil && len(c.idle) > 0 {
			mc, c.idle = c.idle[len(c.idle)-1], c.idle[:len(c.idle)-1]
			if !replayable && !idleAlive(mc.Conn) {
				_ = mc.Close() // the member closed it
				mc = nil
			}
		}
		c.mu.Unlock()
		reused := mc != nil
		if !reused {
			d := net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second} // http.DefaultTransport's
			nc, err := d.DialContext(ctx, "tcp", c.addr)
			if err != nil {
				return nil, nil, err
			}
			mc = &memberConn{Conn: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
			mc.abort = func() { _ = nc.SetDeadline(time.Unix(1, 0)) }
		}
		mc.stop = context.AfterFunc(ctx, mc.abort)
		err := send(mc.bw, method, c.addr, path, query, h, body)
		if err == nil {
			if _, err = mc.br.Peek(1); err == nil {
				resp, err := http.ReadResponse(mc.br, req)
				if err != nil {
					c.done(mc, false)
					return nil, nil, err
				}
				return resp, mc, nil
			}
		}
		if c.done(mc, false); !reused || !replayable || ctx.Err() != nil {
			return nil, nil, err
		}
		c.closeIdle(false)
	}
}

// done pools the connection if the caller read the whole answer (reuse), the
// context did not end and idleAlive finds nothing unread; else it closes it.
func (c *memberClient) done(mc *memberConn, reuse bool) {
	if mc.stop() && reuse && mc.br.Buffered() == 0 && idleAlive(mc.Conn) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if !c.closed && len(c.idle) < idleConns {
			c.idle = append(c.idle, mc)
			return
		}
	}
	_ = mc.Close() // nothing on it left to read or report
}

// closeIdle closes the pooled connections; forever, those done returns later.
func (c *memberClient) closeIdle(forever bool) {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, c.closed || forever
	c.mu.Unlock()
	for _, mc := range idle {
		_ = mc.Close() // idle: nothing in flight
	}
}

// send writes the request line, Host, h but its hop-by-hop headers and
// Expect (the body is read already), Content-Length and the body.
func send(bw *bufio.Writer, method, host, path, query string, h http.Header, body []byte) error {
	put := func(ss ...string) { // piece by piece: no concatenation to allocate
		for _, s := range ss {
			bw.WriteString(s)
		}
	}
	if put(method, " ", path); query != "" {
		put("?", query)
	}
	put(" HTTP/1.1\r\nHost: ", host, "\r\n")
	for k, vv := range h {
		if k == "Host" || k == "Content-Length" || k == "Expect" || hopByHop(h, k) {
			continue
		}
		for _, v := range vv {
			put(k, ": ", v, "\r\n")
		}
	}
	if body != nil {
		put("Content-Length: ", strconv.Itoa(len(body)), "\r\n")
	}
	put("\r\n")
	bw.Write(body)
	return bw.Flush() // it reports the first failed write
}

// hopByHop reports whether header key of h ends at this hop: a hop-by-hop
// header httputil.ReverseProxy drops, or one that h's Connection names.
func hopByHop(h http.Header, key string) bool {
	switch key {
	case "Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
		"Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	for _, v := range h["Connection"] {
		for _, f := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(f), key) {
				return true
			}
		}
	}
	return false
}

// forward relays req, its body read already, to mem and the answer to w. An
// answer of known length up to maxBuffered goes out in one Write after the
// head, from a pooled buffer: io.Copy would take the ResponseWriter's
// ReadFrom, which sends the head with the first 512 bytes and copies the rest
// through a buffer of its own. Any other answer streams after a flushed head,
// and its connection is not reused. A member failing before the head answers
// 502; after it, the response is aborted.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, mem *member, body []byte) {
	mem.requests.Add(1)
	resp, mc, err := mem.client.roundTrip(req.Context(), req, req.Method, req.URL.EscapedPath(), req.URL.RawQuery, req.Header, body)
	if err == nil && resp.StatusCode < 200 {
		mem.client.done(mc, false)
		err = fmt.Errorf("interim status %d", resp.StatusCode)
	}
	buf, n := r.bodyBufs.Get(), int64(-1)
	defer func() { r.bodyBufs.Put(buf) }()
	if err == nil {
		if n = resp.ContentLength; resp.Body == http.NoBody {
			n = 0
		}
		if n >= 0 && n <= maxBuffered {
			if int64(cap(buf)) < n {
				buf = make([]byte, n)
			}
			_, err = io.ReadFull(resp.Body, buf[:n])
			mem.client.done(mc, err == nil && !resp.Close)
		}
	}
	if err != nil {
		mem.errors.Add(1)
		r.logf("router: proxy to %s: %v", mem.name, err)
		w.Header()[NodeHeader] = mem.nodeHeader
		tenancy.WriteError(w, badGateway(fmt.Sprintf("fleet member %s unreachable", mem.name)))
		return
	}
	for k, vv := range resp.Header {
		if !hopByHop(resp.Header, k) {
			w.Header()[k] = vv
		}
	}
	w.Header()[NodeHeader] = mem.nodeHeader
	w.WriteHeader(resp.StatusCode)
	if n >= 0 && n <= maxBuffered {
		_, _ = w.Write(buf[:n]) // a client that left is the server's to notice
		return
	}
	_ = http.NewResponseController(w).Flush() // as ReverseProxy: chunked stays chunked
	_, err = io.Copy(w, resp.Body)
	if mem.client.done(mc, false); err != nil {
		mem.errors.Add(1)
		r.logf("router: proxy to %s: %v", mem.name, err)
		panic(http.ErrAbortHandler)
	}
}

// readBody reads a request body under the node's cap, over which the error
// answers 413 too_large as a node's would. No body is nil.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, error) {
	if req.Body == nil || req.Body == http.NoBody {
		return nil, nil
	}
	return io.ReadAll(http.MaxBytesReader(w, req.Body, tenancy.MaxBodyBytes))
}

// call is the router's own request to a member (probe, tenant listing,
// release, adopt) under the admin token, bounded by HealthTimeout.
func (r *Router) call(mem *member, method, pathQuery string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.HealthTimeout)
	defer cancel()
	resp, mc, err := mem.client.roundTrip(ctx, nil, method, pathQuery, "", r.auth, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	mem.client.done(mc, err == nil && !resp.Close)
	return resp.StatusCode, body, err
}
