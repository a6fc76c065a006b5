package resilience

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Call describes one outbound peer request. Exchange builds a fresh
// http.Request from it per attempt, so a retried call resends its body.
type Call struct {
	Method string
	URL    string
	// Body is the request body; nil sends none.
	Body []byte
	// Header is copied onto every attempt's request.
	Header http.Header
	// Timeout, when > 0, bounds the attempt from dial to the last body
	// byte, on top of the client's own Timeout.
	Timeout time.Duration
	// MaxBytes caps the response body; a longer body is an error.
	MaxBytes int64
}

// Exchange sends one attempt of call through c (nil means
// http.DefaultClient) and reads the whole response body, up to
// call.MaxBytes. The body is closed on every path, so the returned
// response's Body must not be read: the bytes are the second result.
// A transport error, a failed body read or a body over the cap returns
// an error and no body.
func Exchange(ctx context.Context, c *http.Client, call Call) (*http.Response, []byte, error) {
	if call.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, call.Timeout)
		defer cancel()
	}
	var body io.Reader
	if call.Body != nil {
		body = bytes.NewReader(call.Body)
	}
	req, err := http.NewRequestWithContext(ctx, call.Method, call.URL, body)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range call.Header {
		req.Header[k] = v
	}
	if c == nil {
		c = http.DefaultClient
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, call.MaxBytes+1))
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s %s: %w", call.Method, call.URL, err)
	}
	if int64(len(data)) > call.MaxBytes {
		return nil, nil, fmt.Errorf("%s %s: response exceeds %d bytes", call.Method, call.URL, call.MaxBytes)
	}
	return resp, data, nil
}
