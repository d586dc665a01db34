package qos

import (
	"encoding/json"
	"errors"
	"testing"
	"time"
)

func TestConfigMergeAndNormalize(t *testing.T) {
	cfg := Config{
		Default: Limits{
			SearchRate: 100, SearchBurst: 20,
			MutateRate: 10, MutateBurst: 5,
			MaxInFlight:  8,
			MaxQueueWait: Duration(200 * time.Millisecond),
		},
		Tenants: map[string]Limits{
			"noisy": {SearchRate: 5, MaxInFlight: 2},
			"vip":   {SearchRate: -1, MaxInFlight: -1, MaxQueueWait: Duration(-1)},
		},
	}
	// Unnamed tenants get the default verbatim.
	if got := cfg.For("other"); got != cfg.Default {
		t.Fatalf("For(other) = %+v, want default", got)
	}
	// Overrides replace only the fields they name; zeros inherit.
	noisy := cfg.For("noisy")
	if noisy.SearchRate != 5 || noisy.MaxInFlight != 2 {
		t.Fatalf("noisy override not applied: %+v", noisy)
	}
	if noisy.SearchBurst != 20 || noisy.MutateRate != 10 || noisy.MaxQueueWait != Duration(200*time.Millisecond) {
		t.Fatalf("noisy lost inherited fields: %+v", noisy)
	}
	// Negative means explicitly unlimited, normalized to the zero form.
	vip := cfg.For("vip")
	if vip.SearchRate != 0 || vip.MaxInFlight != 0 || vip.MaxQueueWait != 0 {
		t.Fatalf("vip not unlimited: %+v", vip)
	}
	if vip.MutateRate != 10 {
		t.Fatalf("vip lost inherited mutate rate: %+v", vip)
	}
}

func TestLimiterClassesAndStats(t *testing.T) {
	lim := NewLimiter(Limits{SearchRate: 1000, SearchBurst: 2, MaxInFlight: 4})
	if err := lim.AllowSearch(); err != nil {
		t.Fatal(err)
	}
	if err := lim.AllowSearch(); err != nil {
		t.Fatal(err)
	}
	err := lim.AllowSearch()
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third search = %v, want ErrRateLimited", err)
	}
	var de *DelayError
	if !errors.As(err, &de) || de.RetryAfter <= 0 {
		t.Fatalf("throttle error %v carries no positive RetryAfter", err)
	}
	// Mutate plane is unconfigured here: unlimited, independent of search.
	for i := 0; i < 10; i++ {
		if err := lim.AllowMutate(); err != nil {
			t.Fatal(err)
		}
	}
	release, err := lim.Admit(0)
	if err != nil {
		t.Fatal(err)
	}
	s := lim.Stats()
	if s.Search.Throttled != 1 || s.Admission.InFlight != 1 || s.Admission.MaxInFlight != 4 {
		t.Fatalf("stats = %+v", s)
	}
	release()

	var nilLim *Limiter
	if nilLim.AllowSearch() != nil || nilLim.AllowMutate() != nil {
		t.Fatal("nil limiter refused")
	}
	rel, err := nilLim.Admit(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

func TestDurationJSON(t *testing.T) {
	type box struct {
		D Duration `json:"d"`
	}
	for in, want := range map[string]time.Duration{
		`{"d":"250ms"}`: 250 * time.Millisecond,
		`{"d":"2s"}`:    2 * time.Second,
		`{"d":1500000}`: 1500 * time.Microsecond,
		`{"d":"1h30m"}`: 90 * time.Minute,
	} {
		var b box
		if err := json.Unmarshal([]byte(in), &b); err != nil {
			t.Fatalf("unmarshal %s: %v", in, err)
		}
		if b.D.Std() != want {
			t.Fatalf("unmarshal %s = %v, want %v", in, b.D.Std(), want)
		}
	}
	// Nanosecond counts outside int64 would wrap into some other duration.
	for _, bad := range []string{`{"d":"soon"}`, `{"d":true}`, `{"d":["1s"]}`, `{"d":1e19}`, `{"d":-1e19}`, `{"d":9223372036854775808}`} {
		var b box
		if err := json.Unmarshal([]byte(bad), &b); err == nil {
			t.Fatalf("unmarshal %s succeeded, want error", bad)
		}
	}
	out, err := json.Marshal(box{D: Duration(90 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"d":"1m30s"}` {
		t.Fatalf("marshal = %s", out)
	}
	var rt box
	if err := json.Unmarshal(out, &rt); err != nil || rt.D != Duration(90*time.Second) {
		t.Fatalf("round trip = %+v, %v", rt, err)
	}
}
