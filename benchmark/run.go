package main

import (
	"bytes"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// ackedToken is one write the fleet acknowledged: its unique token must be
// readable from then on, across a restart.
type ackedToken struct {
	tenant int
	token  string
}

// kept is one read response set aside for the reference-engine oracle.
type kept struct {
	o op
	// paged is true when the request really carried a cursor (a cursor op
	// falls back to page one when the kept read was fully served).
	paged bool
	body  []byte
}

// runner drives a plan's clients against a front door, closed loop.
type runner struct {
	p       *plan
	clients []*clientState
}

type clientState struct {
	c   *client
	ops []op
	pos int
	// cursor is the cursor of the last read marked keep.
	cursor  string
	reads   int
	samples []sample
	acked   []ackedToken
	kept    []kept
	failed  int
	// gone counts 410 answers: cursors a mutation outlived.
	gone int
}

func newRunner(p *plan, base string) *runner {
	r := &runner{p: p}
	for _, ops := range p.ops {
		r.clients = append(r.clients, &clientState{c: newClient(base), ops: ops})
	}
	return r
}

func (r *runner) close() {
	for _, cs := range r.clients {
		cs.c.close()
	}
}

var cursorField = []byte(`"cursor":"`)

// extractCursor returns the cursor of a search response body, "" when the
// query was fully served. The cursor is base64url, so it holds no quote.
func extractCursor(body []byte) string {
	i := bytes.LastIndex(body, cursorField)
	if i < 0 {
		return ""
	}
	rest := body[i+len(cursorField):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return ""
}

// issue sends one op and reports whether the fleet answered 200.
func (cs *clientState) issue(o op) (ok, paged bool, body []byte) {
	method, path := http.MethodGet, o.path
	if o.w != nil {
		method = http.MethodPost
	} else if o.cursor && cs.cursor != "" {
		path, paged = path+"&cursor="+cs.cursor, true
	}
	status, body, err := cs.c.do(method, path, o.body)
	ok = err == nil && status == http.StatusOK
	if status == http.StatusGone {
		cs.gone++
	}
	if ok && o.keep {
		cs.cursor = extractCursor(body)
	}
	return ok, paged, body
}

// run issues the client's ops from its current position: the next n when
// n > 0 (warm-up, untimed), else until the deadline or the end of the
// sequence, recording a sample per op.
func (cs *clientState) run(r *runner, n int, start time.Time, phase time.Duration) {
	measured := n == 0
	for cs.pos < len(cs.ops) {
		if measured {
			if time.Since(start) >= phase {
				return
			}
		} else if n--; n < 0 {
			return
		}
		o := cs.ops[cs.pos]
		cs.pos++
		t0 := time.Now()
		ok, paged, body := cs.issue(o)
		dur := time.Since(t0)
		if ok && o.w != nil {
			cs.acked = append(cs.acked, ackedToken{o.tenant, o.w.token})
		}
		if !measured {
			if !ok {
				cs.failed++
			}
			continue
		}
		cs.samples = append(cs.samples, sample{at: t0.Sub(start), dur: dur, write: o.w != nil, ok: ok})
		if o.q != nil && ok && !r.p.wl.writes {
			if cs.reads++; cs.reads%sampleEvery == 1 {
				cs.kept = append(cs.kept, kept{o: o, paged: paged, body: append([]byte(nil), body...)})
			}
		}
	}
	if measured {
		stderrLog("%s: a client ran out of ops %.1fs into a %.0fs phase; raise ratePerSec",
			r.p.wl.name, time.Since(start).Seconds(), phase.Seconds())
	}
}

// all runs fn for every client at once and waits for all of them.
func (r *runner) all(fn func(cs *clientState)) {
	var wg sync.WaitGroup
	for _, cs := range r.clients {
		wg.Add(1)
		go func(cs *clientState) {
			defer wg.Done()
			fn(cs)
		}(cs)
	}
	wg.Wait()
}

// warmUp runs every client's warm-up prefix and returns the failures.
func (r *runner) warmUp() int {
	r.all(func(cs *clientState) { cs.run(r, r.p.warm, time.Time{}, 0) })
	failed := 0
	for _, cs := range r.clients {
		failed += cs.failed
	}
	return failed
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measured is what the measured phase yields before any metric is derived.
type measured struct {
	samples []sample
	start   time.Time
	phase   time.Duration
	// probe, when set, sampled the machine's speed through the phase.
	probe *probe
	// cpu is the process CPU time at each window boundary (numWindows+1
	// readings).
	cpu    []time.Duration
	before runtime.MemStats
	after  runtime.MemStats
	// heapLive is HeapAlloc after a forced GC at the end of the phase.
	heapLive uint64
}

// measure runs the measured phase: every client issues ops until phase has
// passed, while a sampler reads the CPU time at the window boundaries.
func (r *runner) measure(phase time.Duration, pr *probe) measured {
	m := measured{phase: phase, probe: pr}
	runtime.GC()
	runtime.ReadMemStats(&m.before)
	start := time.Now()
	m.start = start
	m.cpu = append(m.cpu, cpuTime())
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for w := 1; w <= numWindows; w++ {
			time.Sleep(time.Until(start.Add(phase * time.Duration(w) / numWindows)))
			m.cpu = append(m.cpu, cpuTime())
		}
	}()
	r.all(func(cs *clientState) { cs.run(r, 0, start, phase) })
	<-sampled
	runtime.ReadMemStats(&m.after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	m.heapLive = live.HeapAlloc
	for _, cs := range r.clients {
		m.samples = append(m.samples, cs.samples...)
	}
	return m
}

// endToEndMetrics derives the end-to-end metrics (setup_s is added by the
// caller) from a measured phase. It also returns the windows they were
// computed over and how much slower than the reference speed the machine ran
// in those windows; the times are reported at the reference speed.
func (m measured) endToEndMetrics() (e2e map[string]windowed, quiet []bool, slowdown float64, attempted, failed int) {
	for _, s := range m.samples {
		attempted++
		if !s.ok {
			failed++
		}
	}
	counts, quiet := quietWindows(m.samples, m.phase)
	slowdown = 1
	if m.probe != nil {
		slowdown = m.probe.slowdown(func(at time.Time) bool {
			d := at.Sub(m.start)
			return d >= 0 && d < m.phase && quiet[d*numWindows/m.phase]
		})
	}
	window := m.phase / numWindows
	ops := windowed{Windows: make([]float64, numWindows)}
	cpu := windowed{Windows: make([]float64, numWindows)}
	var busy time.Duration
	for w, n := range counts {
		spent := m.cpu[w+1] - m.cpu[w]
		ops.Windows[w] = float64(n) / window.Seconds()
		cpu.Windows[w] = mean(ms(spent), n)
		if quiet[w] {
			ops.Samples += n
			busy += spent
		}
	}
	cpu.Samples = ops.Samples
	ops.Raw = float64(ops.Samples) / (keptWindows * window).Seconds()
	cpu.Raw = mean(ms(busy), ops.Samples)
	isRead := func(s sample) bool { return !s.write }
	p50 := latencyOver(m.samples, m.phase, quiet, 50, isRead)
	p95 := latencyOver(m.samples, m.phase, quiet, 95, isRead)
	ops.Value = ops.Raw * slowdown
	for _, w := range []*windowed{&cpu, &p50, &p95} {
		w.Value = w.Raw / slowdown
	}
	e2e = map[string]windowed{
		"ops_per_s":     ops,
		"cpu_ms_per_op": cpu,
		"read_p50_ms":   p50,
		"read_p95_ms":   p95,
		"heap_live_mb":  {Value: float64(m.heapLive) / (1 << 20), Samples: 1},
	}
	return e2e, quiet, slowdown, attempted, failed
}
