package query

import (
	"net/http"
	"net/url"
	"reflect"
	"testing"
)

// FuzzQueryParams feeds raw query strings to the /v1/query parameter
// parser, the one place queryd turns bytes from a socket into a store
// predicate. It must never panic, and what it accepts must be a
// predicate the store can take as is: a non-negative limit, a prefix
// already masked, a slice range exactly when one was asked for — and
// the same answer for the same string.
func FuzzQueryParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		req := &http.Request{URL: &url.URL{RawQuery: raw}}
		pred, limit, err := parsePred(req)
		pred2, limit2, err2 := parsePred(req)
		if (err == nil) != (err2 == nil) || limit != limit2 || !reflect.DeepEqual(pred, pred2) {
			t.Fatalf("%q parsed twice: (%+v, %d, %v) then (%+v, %d, %v)", raw, pred, limit, err, pred2, limit2, err2)
		}
		if err != nil {
			return
		}
		if limit < 0 {
			t.Fatalf("%q: accepted limit %d", raw, limit)
		}
		if pred.Prefix != pred.Prefix.Masked() {
			t.Fatalf("%q: prefix %v is not masked", raw, pred.Prefix)
		}
		q := req.URL.Query()
		if asked := q.Get("slice_lo") != "" || q.Get("slice_hi") != ""; asked != (pred.Slices != nil) {
			t.Fatalf("%q: slice range asked for: %v, in the predicate: %+v", raw, asked, pred.Slices)
		}
	})
}
