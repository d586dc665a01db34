package main

import (
	"sync"
	"time"
)

// The machine this benchmark runs on is a small VM on a shared host, and
// how much of a core a vCPU really gets moves by a third over minutes (a
// neighbour on the sibling hyperthread, the host's scheduler, turbo). That
// moves every time this benchmark measures by the same factor, and it is
// larger than any bound BENCHMARK.json may set. So the benchmark measures the
// speed of the machine beside the program: a probe goroutine times a small
// fixed piece of arithmetic every few milliseconds for the whole run, and
// every time metric is reported as it would have been had the probe taken
// probeRef: multiplied by probeRef / (what the probe took meanwhile).
// README.md ("How steady") has the measurements behind this.
const (
	// probeRef is what the probe kernel takes on this VM while its host is
	// quiet; it fixes the speed all times are reported at.
	probeRef = 190 * time.Microsecond
	// probeEvery is the pause between two samples: the probe costs one
	// core about 1.5%.
	probeEvery = 12 * time.Millisecond
	// probeKeep is the share of an interval's samples, fastest first, that
	// probe.took averages: a sample that a GC pause or the host's scheduler
	// interrupted says nothing about speed.
	probeKeep = 0.9
)

var probeSink uint64

// probeKernel is eight independent multiply-add chains over 4 KB that stay
// in L1: work that keeps every port of the core busy and touches no shared
// cache, so it slows when the core is shared or taken away and not
// otherwise. Of the kernels tried (a dependent chain, a pointer walk through
// L2, an allocation loop) it is the one that slows by the factor the four
// workloads slow by.
func probeKernel() uint64 {
	var a [512]uint64
	for i := range a {
		a[i] = uint64(i)*2654435761 + 1
	}
	var s0, s1, s2, s3, s4, s5, s6, s7 uint64
	for r := 0; r < 1300; r++ {
		for i := 0; i < len(a); i += 8 {
			s0 = s0*3 + a[i]
			s1 = s1*5 + a[i+1]
			s2 = s2*7 + a[i+2]
			s3 = s3*9 + a[i+3]
			s4 = s4*11 + a[i+4]
			s5 = s5*13 + a[i+5]
			s6 = s6*15 + a[i+6]
			s7 = s7*17 + a[i+7]
		}
	}
	return s0 ^ s1 ^ s2 ^ s3 ^ s4 ^ s5 ^ s6 ^ s7
}

// probeSample is one timing of the kernel.
type probeSample struct {
	at   time.Time
	took time.Duration
}

// probe samples the machine's speed from start until stop.
type probe struct {
	mu      sync.Mutex
	samples []probeSample
	quit    chan struct{}
	done    chan struct{}
	once    sync.Once
}

func startProbe() *probe {
	p := &probe{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			t0 := time.Now()
			probeSink += probeKernel()
			s := probeSample{at: t0, took: time.Since(t0)}
			p.mu.Lock()
			p.samples = append(p.samples, s)
			p.mu.Unlock()
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the sampling; the samples stay. It may be called twice.
func (p *probe) stop() {
	p.once.Do(func() { close(p.quit) })
	<-p.done
}

// took returns what the kernel took in the samples pick selects: the mean of
// the probeKeep fastest. 0 when pick selects none.
func (p *probe) took(pick func(at time.Time) bool) time.Duration {
	p.mu.Lock()
	var ds []time.Duration
	for _, s := range p.samples {
		if pick(s.at) {
			ds = append(ds, s.took)
		}
	}
	p.mu.Unlock()
	if len(ds) == 0 {
		return 0
	}
	sortDurations(ds)
	n := int(float64(len(ds))*probeKeep + 0.5)
	if n < 1 {
		n = 1
	}
	var sum time.Duration
	for _, d := range ds[:n] {
		sum += d
	}
	return sum / time.Duration(n)
}

// slowdown is how much slower than the reference speed the machine ran in
// the samples pick selects: a time measured meanwhile is divided by it, a
// rate multiplied. 1 when there is no sample to tell.
func (p *probe) slowdown(pick func(at time.Time) bool) float64 {
	if t := p.took(pick); t > 0 {
		return float64(t) / float64(probeRef)
	}
	return 1
}
