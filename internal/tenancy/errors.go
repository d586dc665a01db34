package tenancy

import (
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

// WriteJSON writes v as the JSON body of a status response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode errors past the header write are unrecoverable; ignore them.
	_ = json.NewEncoder(w).Encode(v)
}
