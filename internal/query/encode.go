package query

import (
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/contour"
)

// AppendResponse appends the JSON encoding of r to dst: the bytes
// json.NewEncoder(w).Encode(r) writes, trailing newline included, in
// one pass with no reflection. The field order, omitempty rules, null
// for nil slices, float format and HTML-escaped strings are
// encoding/json's, and the differential fuzzer FuzzResponseEncoding
// holds the two byte-identical. A NaN or ±Inf anywhere in r has no
// JSON form and returns the *json.UnsupportedValueError encoding/json
// returns, with dst's partial append.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	e := responseEncoder{b: dst}
	e.response(r)
	return e.b, e.err
}

// responseEncoder appends one Response; err holds the first
// non-finite float met (the rest is still appended, and discarded).
type responseEncoder struct {
	b   []byte
	err error
}

func (e *responseEncoder) response(r *Response) {
	info := &r.Snapshot
	e.b = append(e.b, `{"snapshot":{"dataset":`...)
	e.string(info.Dataset)
	e.b = append(e.b, `,"measure":`...)
	e.string(info.Measure)
	if info.Color != "" {
		e.b = append(e.b, `,"color":`...)
		e.string(info.Color)
	}
	if info.Bins != 0 {
		e.b = append(e.b, `,"bins":`...)
		e.b = appendInt(e.b, int64(info.Bins))
	}
	e.b = append(e.b, `,"edge":`...)
	e.b = strconv.AppendBool(e.b, info.Edge)
	e.b = append(e.b, `,"seq":`...)
	e.b = strconv.AppendUint(e.b, info.Seq, 10)
	e.b = append(e.b, `,"superNodes":`...)
	e.b = appendInt(e.b, int64(info.SuperNodes))
	e.b = append(e.b, `,"items":`...)
	e.b = appendInt(e.b, int64(info.Items))
	e.b = append(e.b, '}')
	if r.Degraded != "" {
		e.b = append(e.b, `,"degraded":`...)
		e.string(r.Degraded)
	}
	e.b = append(e.b, `,"results":`...)
	if r.Results == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range r.Results {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.result(&r.Results[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, "}\n"...)
}

func (e *responseEncoder) result(r *OpResult) {
	e.b = append(e.b, `{"op":`...)
	e.string(r.Op)
	if r.Error != "" {
		e.b = append(e.b, `,"error":`...)
		e.string(r.Error)
	}
	if r.Count != 0 {
		e.b = append(e.b, `,"count":`...)
		e.b = appendInt(e.b, int64(r.Count))
	}
	if len(r.Components) > 0 {
		e.b = append(e.b, `,"components":[`...)
		for i, c := range r.Components {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"size":`...)
			e.b = appendInt(e.b, int64(c.Size))
			e.b = append(e.b, `,"items":`...)
			e.b = appendInts(e.b, c.Items)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	if len(r.Peaks) > 0 {
		e.b = append(e.b, `,"peaks":[`...)
		for i, p := range r.Peaks {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"node":`...)
			e.b = appendInt(e.b, int64(p.Node))
			e.b = append(e.b, `,"height":`...)
			e.float(p.Height)
			e.b = append(e.b, `,"items":`...)
			e.b = appendInt(e.b, int64(p.Items))
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	if r.ItemCount != 0 {
		e.b = append(e.b, `,"itemCount":`...)
		e.b = appendInt(e.b, int64(r.ItemCount))
	}
	if len(r.Items) > 0 {
		e.b = append(e.b, `,"items":`...)
		e.b = appendInts(e.b, r.Items)
	}
	if r.Spectrum != nil {
		e.b = append(e.b, `,"spectrum":`...)
		e.spectrum(r.Spectrum)
	}
	if r.GCI != nil {
		e.b = append(e.b, `,"gci":`...)
		e.float(*r.GCI)
	}
	if len(r.Outliers) > 0 {
		e.b = append(e.b, `,"outliers":[`...)
		for i, o := range r.Outliers {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"item":`...)
			e.b = appendInt(e.b, int64(o.Item))
			e.b = append(e.b, `,"lci":`...)
			e.float(o.LCI)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

// spectrum encodes a contour.Spectrum, whose fields carry no tags.
func (e *responseEncoder) spectrum(s *contour.Spectrum) {
	e.b = append(e.b, `{"Levels":`...)
	if s.Levels == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, v := range s.Levels {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.float(v)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"Components":`...)
	e.b = appendInts(e.b, s.Components)
	e.b = append(e.b, `,"Items":`...)
	e.b = appendInts(e.b, s.Items)
	e.b = append(e.b, '}')
}

// appendInts appends v as a JSON list, or null when v is nil.
func appendInts[T int | int32](b []byte, v []T) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, int64(x))
	}
	return append(b, ']')
}

// appendInt appends v in decimal, two digits per step, straight into
// b's spare capacity: strconv.AppendInt's copy out of a stack buffer
// costs more than the digits on short item IDs.
func appendInt(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
	}
	// The digit count from the bit length: log10(2) ≈ 1233/4096.
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	n = max(n, 1)
	b = slices.Grow(b, n)
	i := len(b) + n
	b = b[:i]
	for u >= 100 {
		d := u % 100 * 2
		u /= 100
		i -= 2
		b[i], b[i+1] = digitPairs[d], digitPairs[d+1]
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// float appends f as encoding/json does: 'f' format, or 'e' below
// 1e-6 or at 1e21 and above with a two-digit negative exponent's
// leading zero dropped (e-07 → e-7), shortest round-trip digits, and
// -0 kept.
func (e *responseEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		e.b = append(e.b, "null"...)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// string appends s quoted. Printable ASCII outside `"\<>&` is copied
// as is; any other string (rare: client-echoed op names, error texts)
// takes encoding/json's own escaping, HTML-safe and replacing invalid
// UTF-8 as it does.
func (e *responseEncoder) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, quoted...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// maxPooledResponse caps the buffers kept in responseBufs: a rare huge
// answer (an unlimited list or a large spectrum) is not held by the
// pool afterwards.
const maxPooledResponse = 1 << 20

// responseBufs pools the buffers Handler encodes answers into.
var responseBufs = sync.Pool{New: func() any { return new([]byte) }}
