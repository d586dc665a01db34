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
	CodeOverloaded     = "overloaded"      // 503
)

// apiError is the typed error the handler layer funnels every failure
// through; writeError is the single place it becomes HTTP.
type apiError struct {
	status     int
	code       string
	msg        string
	retryable  bool
	retryAfter time.Duration // > 0: emit Retry-After (429/503)
}

func (e *apiError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errUnauthorized(msg string) *apiError {
	return &apiError{status: http.StatusUnauthorized, code: CodeUnauthorized, msg: msg}
}

func errForbidden(msg string) *apiError {
	return &apiError{status: http.StatusForbidden, code: CodeForbidden, msg: msg}
}

func errNotFound(msg string) *apiError {
	return &apiError{status: http.StatusNotFound, code: CodeNotFound, msg: msg}
}

func errConflict(msg string) *apiError {
	return &apiError{status: http.StatusConflict, code: CodeConflict, msg: msg}
}

func errInternal(msg string, retryable bool) *apiError {
	return &apiError{status: http.StatusInternalServerError, code: CodeInternal, msg: msg, retryable: retryable}
}

func errNotImplemented(msg string) *apiError {
	return &apiError{status: http.StatusNotImplemented, code: CodeNotImplemented, msg: msg}
}

// toAPIError maps any error onto the envelope's typed form. Unrecognized
// errors are conservative 500s.
func toAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	var delay *qos.DelayError
	retryAfter := time.Duration(0)
	if errors.As(err, &delay) {
		retryAfter = delay.RetryAfter
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return &apiError{
			status: http.StatusRequestEntityTooLarge, code: CodeTooLarge,
			msg: fmt.Sprintf("request body over %d bytes", tooLarge.Limit),
		}
	case errors.Is(err, qos.ErrRateLimited):
		return &apiError{
			status: http.StatusTooManyRequests, code: CodeRateLimited,
			msg: err.Error(), retryable: true, retryAfter: retryAfter,
		}
	case errors.Is(err, qos.ErrShed), errors.Is(err, qos.ErrDeadline):
		return &apiError{
			status: http.StatusServiceUnavailable, code: CodeOverloaded,
			msg: err.Error(), retryable: true, retryAfter: retryAfter,
		}
	case errors.Is(err, sizelos.ErrCursorMalformed), errors.Is(err, sizelos.ErrInvalidRequest):
		// A cursor that never came from this service, or a request no
		// database state could serve (l < 1, unknown algorithm).
		return errBadRequest("%v", err)
	case errors.Is(err, sizelos.ErrStreamInvalidated):
		// A mutation outlived the cursor: the page it pointed into no
		// longer exists. Restart the query; retrying as-is cannot succeed.
		return &apiError{status: http.StatusGone, code: CodeGone, msg: err.Error()}
	case errors.Is(err, sizelos.ErrMutationInternal):
		// Post-commit failure: the batch DID apply, clients must not retry.
		return errInternal(err.Error(), false)
	case errors.Is(err, ErrTenantExists):
		return errConflict(err.Error())
	case errors.Is(err, ErrDurabilityFailed):
		// The registration was rolled back cleanly; a retry can succeed
		// once the durable store recovers.
		return errInternal(err.Error(), true)
	default:
		return errInternal(err.Error(), false)
	}
}

// writeError is the single typed-error→HTTP mapper: every failure path
// emits the ErrorResponse envelope through it, with Retry-After on
// throttle/overload responses and WWW-Authenticate on 401s.
func writeError(w http.ResponseWriter, err error) {
	ae := toAPIError(err)
	if ae.retryAfter > 0 && (ae.status == http.StatusTooManyRequests || ae.status == http.StatusServiceUnavailable) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(ae.retryAfter)))
	}
	if ae.status == http.StatusUnauthorized {
		w.Header().Set("WWW-Authenticate", `Bearer realm="sizelos admin"`)
	}
	writeJSON(w, ae.status, ErrorResponse{Error: ErrorDetail{
		Code: ae.code, Message: ae.msg, Retryable: ae.retryable,
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode errors past the header write are unrecoverable; ignore them.
	_ = json.NewEncoder(w).Encode(v)
}
