package qos

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Duration is a time.Duration that JSON-decodes from either a Go duration
// string ("250ms", "2s") or a number of nanoseconds, so config files stay
// human-writable.
type Duration time.Duration

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "250ms"-style strings and raw nanosecond numbers
// that fit an int64.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		parsed, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("qos: invalid duration %q: %w", x, err)
		}
		*d = Duration(parsed)
	case float64:
		// 2^63 ns and beyond would wrap when converted.
		if x < math.MinInt64 || x >= math.MaxInt64 {
			return fmt.Errorf("qos: invalid duration %v ns (outside the int64 range)", x)
		}
		*d = Duration(x)
	default:
		return fmt.Errorf("qos: invalid duration %v (want a string like \"250ms\" or nanoseconds)", v)
	}
	return nil
}

// Std returns the standard-library form.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Limits is one tenant's QoS recipe. In the registry-wide default, zero
// values mean unlimited; in a per-tenant override, zero values inherit the
// default and negative values mean explicitly unlimited (see Merge).
type Limits struct {
	// SearchRate / SearchBurst configure the search-plane token bucket
	// (GET /v1/{tenant}/search, /ranked) in requests per second.
	SearchRate  float64 `json:"search_rate,omitempty"`
	SearchBurst float64 `json:"search_burst,omitempty"`
	// MutateRate / MutateBurst configure the write-plane token bucket
	// (POST /v1/{tenant}/tuples).
	MutateRate  float64 `json:"mutate_rate,omitempty"`
	MutateBurst float64 `json:"mutate_burst,omitempty"`
	// MaxInFlight bounds the tenant's concurrently admitted requests
	// across both planes — its share of the machine, independent of the
	// shared summary pool's own budget.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// MaxQueueWait caps how long any request may queue for admission.
	MaxQueueWait Duration `json:"max_queue_wait,omitempty"`
	// DefaultBudget is the latency budget assumed for requests that do
	// not carry one (budget_ms); the shed decision compares the observed
	// queue wait against it.
	DefaultBudget Duration `json:"default_budget,omitempty"`
}

// Merge overlays o (a per-tenant override) on l (the default): zero
// fields inherit, negative fields force unlimited.
func (l Limits) Merge(o Limits) Limits {
	mergeF := func(dst *float64, v float64) {
		if v != 0 {
			*dst = v
		}
	}
	mergeF(&l.SearchRate, o.SearchRate)
	mergeF(&l.SearchBurst, o.SearchBurst)
	mergeF(&l.MutateRate, o.MutateRate)
	mergeF(&l.MutateBurst, o.MutateBurst)
	if o.MaxInFlight != 0 {
		l.MaxInFlight = o.MaxInFlight
	}
	if o.MaxQueueWait != 0 {
		l.MaxQueueWait = o.MaxQueueWait
	}
	if o.DefaultBudget != 0 {
		l.DefaultBudget = o.DefaultBudget
	}
	return l
}

// normalized maps the "negative means unlimited" override convention onto
// the constructors' "<= 0 means unlimited" convention.
func (l Limits) normalized() Limits {
	clampF := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	l.SearchRate = clampF(l.SearchRate)
	l.SearchBurst = clampF(l.SearchBurst)
	l.MutateRate = clampF(l.MutateRate)
	l.MutateBurst = clampF(l.MutateBurst)
	if l.MaxInFlight < 0 {
		l.MaxInFlight = 0
	}
	if l.MaxQueueWait < 0 {
		l.MaxQueueWait = 0
	}
	if l.DefaultBudget < 0 {
		l.DefaultBudget = 0
	}
	return l
}

// Config is the registry-wide QoS surface: one default Limits plus named
// per-tenant overrides. The zero Config imposes no limits at all.
type Config struct {
	Default Limits            `json:"default"`
	Tenants map[string]Limits `json:"tenants,omitempty"`
}

// For resolves the effective Limits for one tenant.
func (c Config) For(tenant string) Limits {
	l := c.Default
	if o, ok := c.Tenants[tenant]; ok {
		l = l.Merge(o)
	}
	return l.normalized()
}

// LimiterStats snapshots one tenant's limiter; it is the qos section of a
// tenant's /stats document as it stands.
type LimiterStats struct {
	Search    BucketStats    `json:"search"`
	Mutate    BucketStats    `json:"mutate"`
	Admission AdmissionStats `json:"admission"`
}

// Limiter is one tenant's enforcement state: a bucket per traffic class
// plus one admission controller spanning both. A nil *Limiter allows
// everything.
type Limiter struct {
	limits Limits
	search *Bucket
	mutate *Bucket
	admit  *Admission
}

// NewLimiter builds the limiter for l (already normalized via Config.For,
// or hand-built with the "<= 0 means unlimited" convention).
func NewLimiter(l Limits) *Limiter {
	lim := &Limiter{limits: l}
	if l.SearchRate > 0 {
		lim.search = NewBucket(l.SearchRate, l.SearchBurst)
	}
	if l.MutateRate > 0 {
		lim.mutate = NewBucket(l.MutateRate, l.MutateBurst)
	}
	lim.admit = NewAdmission(l.MaxInFlight, l.MaxQueueWait.Std())
	return lim
}

// AllowSearch spends one search-plane token; a refusal wraps
// ErrRateLimited with the refill-based backoff hint.
func (l *Limiter) AllowSearch() error {
	if l == nil {
		return nil
	}
	return allow(l.search)
}

// AllowMutate spends one write-plane token.
func (l *Limiter) AllowMutate() error {
	if l == nil {
		return nil
	}
	return allow(l.mutate)
}

func allow(b *Bucket) error {
	ok, retry := b.Allow()
	if ok {
		return nil
	}
	return &DelayError{Err: ErrRateLimited, RetryAfter: retry}
}

// Admit acquires an in-flight slot under the request's latency budget
// (0 = the tenant's DefaultBudget). See Admission.Admit.
func (l *Limiter) Admit(budget time.Duration) (release func(), err error) {
	if l == nil {
		return func() {}, nil
	}
	if budget <= 0 {
		budget = l.limits.DefaultBudget.Std()
	}
	return l.admit.Admit(budget)
}

// Stats snapshots the limiter; nil-safe.
func (l *Limiter) Stats() LimiterStats {
	if l == nil {
		return LimiterStats{}
	}
	return LimiterStats{
		Search:    l.search.Stats(),
		Mutate:    l.mutate.Stats(),
		Admission: l.admit.Stats(),
	}
}
