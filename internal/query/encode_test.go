package query

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/contour"
)

// jsonResponse is the reference encoding: what json.NewEncoder writes.
func jsonResponse(r *Response) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// requireSameEncoding fails unless AppendResponse and encoding/json
// both fail on r, or both succeed with identical bytes.
func requireSameEncoding(t *testing.T, r *Response) {
	t.Helper()
	want, wantErr := jsonResponse(r)
	got, err := AppendResponse(nil, r)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("AppendResponse error %v, encoding/json error %v", err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("AppendResponse error %q, encoding/json error %q", err, wantErr)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("AppendResponse\n%s\nencoding/json\n%s", got, want)
	}
}

// FuzzResponseEncoding is the differential check on the served
// encoder: a Response built from fuzzed strings, floats and ints, with
// each slice nil, empty or filled as shape's bits say, encodes to the
// bytes encoding/json writes, or fails as encoding/json does.
func FuzzResponseEncoding(f *testing.F) {
	for _, s := range []struct {
		text, other string
		x, y        float64
		n           int64
		shape       uint64
	}{
		{"alpha_cut", "GrQc", 1.5, 0.25, 12, 0},
		{"<b>&amp;</b>", "\u2028\u2029", math.Copysign(0, -1), 5e-324, -3, 1<<64 - 1},
		{"bad\xffutf8\x00\x1f\x7f", `quote"back\slash`, 1e-7, 1e20, 1 << 40, 0x5555555555555555},
		{"stale", "degree", 1e21, -1e-6, -1, 0xaaaaaaaaaaaaaaaa},
		{"lci", "clustering", math.Inf(1), 2, 7, 0x00ff00ff00ff00ff},
		{"gci", "", math.Inf(-1), math.NaN(), 0, 0x0f0f0f0f0f0f0f0f},
		{"peaks", "kcore", 123456789.125, 1e-6, 1<<63 - 1, 0x3c3c3c3c3c3c3c3c},
		{"unknown op \"\\u00e9\"", "é", 9.999999999999999e20, 1e-300, -1 << 63, 0xf0f0f0f0f0f0f0f0},
		{"<", ">", -1e-7, 1.5e-8, 42, 0},
		{"a&b", "\t", 1e22, -1e21, 1000, 0},
	} {
		f.Add(s.text, s.other, s.x, s.y, s.n, s.shape)
	}
	f.Fuzz(func(t *testing.T, text, other string, x, y float64, n int64, shape uint64) {
		bit := func() bool { b := shape&1 != 0; shape = shape>>1 | shape<<63; return b }
		// floats, ints and items return nil, empty or the filled list,
		// by two bits.
		floats := func(v ...float64) []float64 {
			switch {
			case bit():
				return v
			case bit():
				return []float64{}
			}
			return nil
		}
		ints := func(v ...int) []int {
			switch {
			case bit():
				return v
			case bit():
				return []int{}
			}
			return nil
		}
		items := func(v ...int32) []int32 {
			switch {
			case bit():
				return v
			case bit():
				return []int32{}
			}
			return nil
		}
		pick := func(s string) string {
			if bit() {
				return s
			}
			return ""
		}
		num := func(v int64) int {
			if bit() {
				return int(v)
			}
			return 0
		}
		i32 := int32(n)
		r := &Response{
			Snapshot: Info{
				Key:        Key{Dataset: other, Measure: text, Color: pick(other), Bins: num(n)},
				Edge:       bit(),
				Seq:        uint64(n),
				SuperNodes: num(n >> 1),
				Items:      int(i32),
			},
			Degraded: pick(text),
		}
		if bit() {
			r.Results = []OpResult{}
		}
		// The first result always carries every group; three more are
		// shaped by the bits.
		for i := range 4 {
			if i > 0 && !bit() {
				continue
			}
			full := i == 0
			res := OpResult{Op: text, Error: pick(other), Count: num(n), ItemCount: num(-n)}
			if full || bit() {
				res.Components = []Component{{Size: num(n), Items: items(i32, 0, 7)}, {Size: 1, Items: items()}}
			} else if bit() {
				res.Components = []Component{}
			}
			if full || bit() {
				res.Peaks = []PeakInfo{{Node: i32, Height: x, Items: num(n)}, {Node: 0, Height: y, Items: 1}}
			}
			res.Items = items(i32, -i32, 1<<31-1)
			if full || bit() {
				res.Spectrum = &contour.Spectrum{
					Levels:     floats(x, y, -x),
					Components: ints(int(n), 0, -1),
					Items:      ints(int(i32)),
				}
			}
			if full || bit() {
				gci := y
				res.GCI = &gci
			}
			if full || bit() {
				res.Outliers = []Outlier{{Item: i32, LCI: x}, {Item: 3, LCI: y}}
			} else if bit() {
				res.Outliers = []Outlier{}
			}
			r.Results = append(r.Results, res)
		}
		requireSameEncoding(t, r)
	})
}

// TestEncodeResponseAllocs: once its pooled buffer has grown, encoding
// a served answer — every op the API has, over a real snapshot —
// allocates nothing.
func TestEncodeResponseAllocs(t *testing.T) {
	e := testEngine(t, Options{})
	snap, err := e.Snapshot(Key{Dataset: "tiny", Measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	resp := &Response{Snapshot: snap.Info(), Degraded: DegradedStale, Results: e.Resolve(snap, []Op{
		{Op: OpAlphaCut, Alpha: 1}, {Op: OpPeaks, Alpha: 1}, {Op: OpMCC, Item: 2},
		{Op: OpComponentOf, Item: 3, Alpha: 2}, {Op: OpSpectrum},
		{Op: OpLCI, MeasureJ: "degree"}, {Op: OpGCI, MeasureJ: "degree"}, {Op: OpMCC, Item: 99},
	})}
	requireSameEncoding(t, resp)
	encode := func() {
		buf := responseBufs.Get().(*[]byte)
		body, err := AppendResponse((*buf)[:0], resp)
		if err != nil {
			t.Fatal(err)
		}
		*buf = body[:0]
		responseBufs.Put(buf)
	}
	encode()
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Fatalf("warm encode into a pooled buffer: %v allocations, want 0", allocs)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
