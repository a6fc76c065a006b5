package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"
)

// exchange is one HTTP call of a request. A request is what the closed
// loop times as one unit: a single batch query, or — for the
// reanalysis workloads — an invalidation followed by the read it forces.
type exchange struct {
	url  string
	body []byte
	// want is the oracle's answer, compared byte for byte.
	want []byte
}

// source yields each client's next request and its class: requests of
// one class do the same work, so their latencies differ only by what
// the host did meanwhile. next is called only from the client's own
// goroutine, so an implementation may keep per-client state indexed by
// client without locking.
type source interface {
	next(client int) (class int, req []exchange)
}

// failure kinds, as counted in the report.
const (
	failTransport = "transport"
	failStatus    = "status"
	failMismatch  = "mismatch"
)

// loopResult is what one closed-loop window measured.
type loopResult struct {
	window    time.Duration
	latencies []float64         // ms, requests completed inside the window, sorted
	byClass   map[int][]float64 // the same latencies by request class
	attempted int
	failed    int
	byKind    map[string]int
	firstFail string
	respBytes int64 // bytes of every checked response completed in the window
}

func newLoopResult(window time.Duration) *loopResult {
	return &loopResult{window: window, byClass: map[int][]float64{}, byKind: map[string]int{}}
}

func (r *loopResult) completed() int { return len(r.latencies) }

// add appends another window's measurements to r.
func (r *loopResult) add(o *loopResult) {
	r.window += o.window
	r.latencies = append(r.latencies, o.latencies...)
	slices.Sort(r.latencies)
	for class, l := range o.byClass {
		r.byClass[class] = append(r.byClass[class], l...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	for k, v := range o.byKind {
		r.byKind[k] += v
	}
	if r.firstFail == "" {
		r.firstFail = o.firstFail
	}
	r.respBytes += o.respBytes
}

// quietQuantile picks a request class's quiet time from its samples.
const quietQuantile = 0.02

// quiet returns, for every completed request, the quiet time of its
// class: the 2nd percentile of the class's latencies, the nearest rank
// (the fastest, up to fifty samples). A shared host only ever slows a
// request down, and its slow phases can last longer than a run; but
// even then requests often run untouched, so a class's fastest samples
// are its own cost, where its median follows the neighbours. A fixed
// loop of work, timed thirty times over a minute on a two-core host,
// read 29 ms at the median and 36 ms an hour later, and under 26 ms at
// the 10th percentile both times. A request over loopback needs both
// cores in turn, client's and server's, so its quiet moments are likely
// rarer: at the 10th percentile the reanalysis still drifted by a
// quarter between runs in a slow phase.
func (r *loopResult) quiet() []float64 {
	var out []float64
	for _, l := range r.byClass {
		s := slices.Clone(l)
		slices.Sort(s)
		q, _ := percentile(s, quietQuantile)
		for range l {
			out = append(out, q)
		}
	}
	slices.Sort(out)
	return out
}

// newClient returns an HTTP client sized for the given concurrency.
func newClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        clients * 2,
			MaxIdleConnsPerHost: clients * 2,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// closedLoop runs clients goroutines, each sending its next request as
// soon as the previous one answered, until window has elapsed. A
// request counts as completed (and contributes a latency sample) when
// it finished inside the window and every exchange succeeded; any
// failed exchange counts the whole request failed.
func closedLoop(ctx context.Context, hc *http.Client, src source, clients int, window time.Duration) *loopResult {
	// The load generator keeps to one CPU at a time while it measures,
	// so the servers are not outbid for the host's cores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newLoopResult(window)
	var mu sync.Mutex
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			byClass := map[int][]float64{}
			var attempted, failed int
			var bytesOK int64
			kinds := map[string]int{}
			first := ""
			for ctx.Err() == nil && time.Now().Before(deadline) {
				class, req := src.next(c)
				attempted++
				t0 := time.Now()
				var n int64
				var kind, detail string
				for _, ex := range req {
					k, d := do(ctx, hc, ex, &buf)
					if k != "" {
						kind, detail = k, d
						break
					}
					n += int64(buf.Len())
				}
				end := time.Now()
				if kind != "" {
					failed++
					kinds[kind]++
					if first == "" {
						first = detail
					}
					continue
				}
				if !end.After(deadline) {
					byClass[class] = append(byClass[class], ms(end.Sub(t0)))
					bytesOK += n
				}
			}
			mu.Lock()
			for class, l := range byClass {
				res.byClass[class] = append(res.byClass[class], l...)
				res.latencies = append(res.latencies, l...)
			}
			res.attempted += attempted
			res.failed += failed
			res.respBytes += bytesOK
			for k, v := range kinds {
				res.byKind[k] += v
			}
			if res.firstFail == "" {
				res.firstFail = first
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	slices.Sort(res.latencies)
	return res
}

// do performs one exchange, reading the body into buf, and classifies
// a failure: transport error, non-2xx status, or bytes that differ
// from the oracle (which covers a "degraded" answer and a wrong seq).
func do(ctx context.Context, hc *http.Client, ex exchange, buf *bytes.Buffer) (kind, detail string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ex.url, bytes.NewReader(ex.body))
	if err != nil {
		return failTransport, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return failTransport, err.Error()
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return failTransport, err.Error()
	}
	if resp.StatusCode/100 != 2 {
		return failStatus, fmt.Sprintf("%s: status %d: %.200s", ex.url, resp.StatusCode, buf.Bytes())
	}
	if !bytes.Equal(buf.Bytes(), ex.want) {
		return failMismatch, fmt.Sprintf("%s: %d bytes differ from the %d expected (body %.200s; want %.200s)",
			ex.url, buf.Len(), len(ex.want), buf.Bytes(), ex.want)
	}
	return "", ""
}

// post sends one exchange outside any timed loop (warming, probing)
// and returns an error on any failure.
func post(ctx context.Context, hc *http.Client, ex exchange) error {
	var buf bytes.Buffer
	if kind, detail := do(ctx, hc, ex, &buf); kind != "" {
		return fmt.Errorf("%s failure: %s", kind, detail)
	}
	return nil
}
