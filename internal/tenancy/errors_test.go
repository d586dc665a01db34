package tenancy

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestWriteJSONKnownLength: a body goes out in one write with its
// Content-Length, byte for byte what json.Encoder streams (trailing newline
// included).
func TestWriteJSONKnownLength(t *testing.T) {
	v := map[string]any{"tenants": []string{"a", "b"}, "html": "<&>"}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, v)
	if rec.Code != http.StatusCreated || rec.Body.String() != want.String() {
		t.Fatalf("got %d %q, want %d %q", rec.Code, rec.Body, http.StatusCreated, want.String())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, want.Len())
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json rejects answers the
// 500 envelope (code internal, with its own Content-Length), not a 200
// with an empty or torn body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, struct {
		Score float64 `json:"score"`
	}{math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %q)", rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	var e ErrorResponse
	if err := dec.Decode(&e); err != nil {
		t.Fatalf("500 body is not an ErrorResponse: %v", err)
	}
	if e.Error.Code != CodeInternal || e.Error.Retryable || !strings.Contains(e.Error.Message, "+Inf") {
		t.Fatalf("envelope %+v, want a non-retryable %s naming the value", e.Error, CodeInternal)
	}
}
