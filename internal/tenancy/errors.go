package tenancy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"sizelos"
	"sizelos/internal/qos"
)

// ErrorDetail is the uniform machine-readable error every failure path of
// the service emits.
type ErrorDetail struct {
	// Code is a stable, documented identifier (docs/QOS.md lists them all).
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
	// Retryable reports whether retrying the identical request can
	// succeed — after the Retry-After delay when one is given. 409s, 400s
	// and post-commit 500s are not retryable; 429/503 are.
	Retryable bool `json:"retryable"`
}

// ErrorResponse is the JSON envelope wrapping ErrorDetail:
//
//	{"error":{"code":"rate_limited","message":"...","retryable":true}}
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// Error codes, one per distinct failure class. The HTTP status is derived
// from the code, never chosen ad hoc at a call site.
const (
	CodeBadRequest     = "bad_request"     // 400
	CodeUnauthorized   = "unauthorized"    // 401
	CodeForbidden      = "forbidden"       // 403
	CodeNotFound       = "not_found"       // 404
	CodeConflict       = "conflict"        // 409
	CodeGone           = "gone"            // 410
	CodeTooLarge       = "too_large"       // 413
	CodeRateLimited    = "rate_limited"    // 429
	CodeInternal       = "internal"        // 500
	CodeNotImplemented = "not_implemented" // 501
	CodeOverloaded     = "overloaded"      // 502, 503
)

// Error is the typed error every failure path of a node and of the router
// funnels through; WriteError is the single place it becomes HTTP.
type Error struct {
	Status     int
	Code       string
	Message    string
	Retryable  bool
	RetryAfter time.Duration // > 0: emit Retry-After (429/503)
}

func (e *Error) Error() string { return e.Message }

// BadRequest is a 400: the client sent something no state could serve.
func BadRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

// NotFound is a 404.
func NotFound(msg string) *Error {
	return &Error{Status: http.StatusNotFound, Code: CodeNotFound, Message: msg}
}

// Conflict is a 409: the request clashes with current state.
func Conflict(msg string) *Error {
	return &Error{Status: http.StatusConflict, Code: CodeConflict, Message: msg}
}

// Overloaded is a retryable 503, with Retry-After when retryAfter > 0.
func Overloaded(msg string, retryAfter time.Duration) *Error {
	return &Error{Status: http.StatusServiceUnavailable, Code: CodeOverloaded, Message: msg, Retryable: true, RetryAfter: retryAfter}
}

func errInternal(msg string, retryable bool) *Error {
	return &Error{Status: http.StatusInternalServerError, Code: CodeInternal, Message: msg, Retryable: retryable}
}

// toError maps any error onto the envelope's typed form. Unrecognized
// errors are conservative 500s.
func toError(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	var delay *qos.DelayError
	retryAfter := time.Duration(0)
	if errors.As(err, &delay) {
		retryAfter = delay.RetryAfter
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return &Error{
			Status: http.StatusRequestEntityTooLarge, Code: CodeTooLarge,
			Message: fmt.Sprintf("request body over %d bytes", tooLarge.Limit),
		}
	case errors.Is(err, qos.ErrRateLimited):
		return &Error{
			Status: http.StatusTooManyRequests, Code: CodeRateLimited,
			Message: err.Error(), Retryable: true, RetryAfter: retryAfter,
		}
	case errors.Is(err, qos.ErrShed), errors.Is(err, qos.ErrDeadline):
		return Overloaded(err.Error(), retryAfter)
	case errors.Is(err, sizelos.ErrCursorMalformed), errors.Is(err, sizelos.ErrInvalidRequest):
		// A cursor that never came from this service, or a request no
		// database state could serve (l < 1, unknown algorithm).
		return BadRequest("%v", err)
	case errors.Is(err, sizelos.ErrStreamInvalidated):
		// A mutation outlived the cursor: the page it pointed into no
		// longer exists. Restart the query; retrying as-is cannot succeed.
		return &Error{Status: http.StatusGone, Code: CodeGone, Message: err.Error()}
	case errors.Is(err, sizelos.ErrMutationInternal):
		// Post-commit failure: the batch DID apply, clients must not retry.
		return errInternal(err.Error(), false)
	case errors.Is(err, ErrTenantExists):
		return Conflict(err.Error())
	case errors.Is(err, ErrDurabilityFailed):
		// The registration was rolled back cleanly; a retry can succeed
		// once the durable store recovers.
		return errInternal(err.Error(), true)
	default:
		return errInternal(err.Error(), false)
	}
}

// WriteError is the single typed-error→HTTP mapper: every failure path of
// a node and of the router emits the ErrorResponse envelope through it,
// with Retry-After on throttle/overload responses and WWW-Authenticate on
// 401s.
func WriteError(w http.ResponseWriter, err error) {
	e := toError(err)
	if e.RetryAfter > 0 && (e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(e.RetryAfter)))
	}
	if e.Status == http.StatusUnauthorized {
		w.Header().Set("WWW-Authenticate", `Bearer realm="sizelos admin"`)
	}
	WriteJSON(w, e.Status, ErrorResponse{Error: ErrorDetail{
		Code: e.Code, Message: e.Message, Retryable: e.Retryable,
	}})
}

// retryAfterSeconds rounds a backoff hint up to whole seconds (the
// Retry-After delta-seconds form), never below 1 — "0" would invite an
// immediate retry of a request just refused.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// FreeList keeps up to FreeListDepth idle values for reuse: the serving
// path's buffers, WriteJSON's bodies and the router's copy buffers. Unlike
// a sync.Pool it neither empties at a GC nor drops values at random under
// the race detector, so it pins at most FreeListDepth idle values.
type FreeList[T any] struct {
	idle  chan T
	alloc func() T
}

// FreeListDepth is the requests a node or router usually has in flight: a
// closed-loop client keeps one, the benchmark fleet runs at most four, and
// its router peaked at 2 concurrent copies on each workload with the two
// clients of a 2-CPU host. A burst past it allocates what it needs.
const FreeListDepth = 4

// NewFreeList is an empty FreeList of values made by alloc.
func NewFreeList[T any](alloc func() T) *FreeList[T] {
	return &FreeList[T]{idle: make(chan T, FreeListDepth), alloc: alloc}
}

// Get returns an idle value, or a new one.
func (l *FreeList[T]) Get() T {
	select {
	case v := <-l.idle:
		return v
	default:
		return l.alloc()
	}
}

// Put keeps v for reuse unless FreeListDepth values are idle already.
func (l *FreeList[T]) Put(v T) {
	select {
	case l.idle <- v:
	default:
	}
}

// maxPooledBody caps the buffers WriteJSON keeps for reuse, so one
// outsized answer does not stay resident.
const maxPooledBody = 1 << 20

var bodyBufs = NewFreeList(func() *bytes.Buffer { return new(bytes.Buffer) })

// WriteJSON writes v as the JSON body of a status response. The body is
// encoded before the header goes out, so it travels with a Content-Length
// in one write, and a value encoding/json rejects answers a 500 envelope
// instead of a torn body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, func(buf *bytes.Buffer) error { return json.NewEncoder(buf).Encode(v) })
}

func writeBody(w http.ResponseWriter, status int, encode func(*bytes.Buffer) error) {
	buf := bodyBufs.Get()
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyBufs.Put(buf)
		}
	}()
	if err := encode(buf); err != nil {
		WriteError(w, errInternal("encode response: "+err.Error(), false))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(buf.Bytes())
}
