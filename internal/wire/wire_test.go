package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// container writes one container with the given sections, in order.
func container(t testing.TB, magic string, version byte, sections ...[2]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, magic, version)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections {
		if err := w.Section(s[0], []byte(s[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	var a Payload
	a.PutString("hello")
	a.PutUint64(42)
	a.PutBool(true)
	a.PutFloat64(math.Pi)
	a.PutInt64(-7)
	b := AppendFloat64s(nil, []float64{1, 2.5, math.Inf(1), math.NaN()})
	img := container(t, "TST1", 3,
		[2]string{"aaaa", string(a.Bytes())},
		[2]string{"bbbb", string(b)},
		[2]string{"empt", ""})

	s, err := Walk(img, "TST1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != 3 {
		t.Fatalf("version %d, want 3", s.Version)
	}

	if !s.Next() || s.Tag() != "aaaa" {
		t.Fatalf("first section %q, %v", s.Tag(), s.Err())
	}
	p := NewPayload(s.Payload())
	if str, err := p.String(); err != nil || str != "hello" {
		t.Fatalf("string %q, %v", str, err)
	}
	if v, err := p.Uint64(); err != nil || v != 42 {
		t.Fatalf("uint64 %d, %v", v, err)
	}
	if v, err := p.Bool(); err != nil || !v {
		t.Fatalf("bool %v, %v", v, err)
	}
	if v, err := p.Float64(); err != nil || v != math.Pi {
		t.Fatalf("float64 %v, %v", v, err)
	}
	if v, err := p.Int64(); err != nil || v != -7 {
		t.Fatalf("int64 %d, %v", v, err)
	}
	if p.Remaining() != 0 {
		t.Fatalf("%d bytes left over", p.Remaining())
	}

	if !s.Next() || s.Tag() != "bbbb" {
		t.Fatalf("second section %q, %v", s.Tag(), s.Err())
	}
	fs := Float64s(s.Payload())
	if len(fs) != 4 || fs[1] != 2.5 || !math.IsInf(fs[2], 1) || !math.IsNaN(fs[3]) {
		t.Fatalf("float64s %v", fs)
	}

	if !s.Next() || s.Tag() != "empt" || len(s.Payload()) != 0 {
		t.Fatalf("empty section %q (%d bytes), %v", s.Tag(), len(s.Payload()), s.Err())
	}

	if s.Next() || s.Err() != nil {
		t.Fatalf("after last section got another or %v, want a clean end", s.Err())
	}
}

// TestWalkAliasesImage: payloads are sub-slices of the image capped at
// their section's end, the walk allocates nothing, and a caller may
// stop before a torn tail without seeing its error.
func TestWalkAliasesImage(t *testing.T) {
	img := container(t, "TST1", 1, [2]string{"aaaa", "xyz"}, [2]string{"bbbb", "0123456789"})
	s, err := Walk(img, "TST1", 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Next()
	p := s.Payload()
	if &p[0] != &img[headerLen+sectionHeaderLen] || cap(p) != 3 {
		t.Fatalf("payload at %p cap %d, want %p cap 3", &p[0], cap(p), &img[headerLen+sectionHeaderLen])
	}

	allocs := testing.AllocsPerRun(20, func() {
		s, err := Walk(img, "TST1", 1)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for s.Next() {
			if s.Tag() == "bbbb" {
				n += len(s.Payload())
			}
		}
		if s.Err() != nil || n != 10 {
			t.Fatalf("walk: %d payload bytes, %v", n, s.Err())
		}
	})
	if allocs != 0 {
		t.Errorf("walk allocates %v times, want 0", allocs)
	}

	torn := img[:len(img)-1]
	s, _ = Walk(torn, "TST1", 1)
	if !s.Next() || s.Tag() != "aaaa" || s.Err() != nil {
		t.Fatalf("first section of a torn image: %q, %v", s.Tag(), s.Err())
	}
}

func TestHeaderValidation(t *testing.T) {
	img := container(t, "GOOD", 1, [2]string{"sect", "\x01"})

	if _, err := Walk(img, "EVIL", 1); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, err := Walk(img, "GOOD", 0); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := Walk([]byte("GO"), "GOOD", 1); err == nil {
		t.Fatal("truncated magic accepted")
	}
	if _, err := Walk([]byte("GOOD"), "GOOD", 1); err == nil {
		t.Fatal("missing version accepted")
	}
	if s, err := Walk(img[:headerLen], "GOOD", 1); err != nil || s.Next() || s.Err() != nil {
		t.Fatalf("header-only container: %v / %v, want no sections and no error", err, s.Err())
	}
}

// TestTruncationIsAnErrorNotEOF: a container cut mid-section must
// surface as an error, distinct from the clean end of the sections.
func TestTruncationIsAnErrorNotEOF(t *testing.T) {
	full := container(t, "TST1", 1, [2]string{"data", string(AppendFloat64s(nil, make([]float64, 100)))})

	for _, cut := range []int{len(full) - 1, len(full) - 100, 7, 9, 13} {
		s, err := Walk(full[:cut], "TST1", 1)
		if err != nil {
			continue // header itself truncated: also fine
		}
		if s.Next() || s.Err() == nil {
			t.Fatalf("truncation at %d bytes yielded a section or a clean end (%v)", cut, s.Err())
		}
	}
}

// TestHostileCountsDoNotBalloon: declared section lengths far beyond
// the actual data must error without huge allocations.
func TestHostileCountsDoNotBalloon(t *testing.T) {
	// Section declaring a petabyte payload with 4 actual bytes.
	evil := append([]byte("TST1\x01sect"), []byte{0, 0, 0, 0, 0, 0, 4, 0}...) // 2^50 LE
	evil = append(evil, 1, 2, 3, 4)
	s, err := Walk(evil, "TST1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Next() || s.Err() == nil {
		t.Fatal("petabyte section length accepted")
	}
	// A length that wraps int when added to the offset.
	binary.LittleEndian.PutUint64(evil[9:], math.MaxUint64)
	s, _ = Walk(evil, "TST1", 1)
	if s.Next() || s.Err() == nil {
		t.Fatal("wrapping section length accepted")
	}
}

// TestStringLengthValidated covers lengths that turn negative when
// converted to a 32-bit int (run with GOARCH=386) as well as a plain
// overrun.
func TestStringLengthValidated(t *testing.T) {
	for _, length := range []uint32{math.MaxUint32, 1 << 31, 2} {
		b := binary.LittleEndian.AppendUint32(nil, length)
		p := NewPayload(append(b, 'x'))
		if _, err := p.String(); err == nil {
			t.Fatalf("string length %d over 1 byte accepted", length)
		}
	}
}

// refSection is one section as the reference walk frames it: the tag
// and the payload's [start, end) in the image.
type refSection struct {
	tag        string
	start, end int
}

// referenceWalk frames img by explicit offsets, reporting ok only when
// the header is valid and the sections end exactly at the image's end.
func referenceWalk(img []byte, magic string, maxVersion byte) (sections []refSection, ok bool) {
	if len(img) < 5 || string(img[:4]) != magic || img[4] > maxVersion {
		return nil, false
	}
	for off := uint64(5); off < uint64(len(img)); {
		if uint64(len(img))-off < 12 {
			return sections, false
		}
		length := binary.LittleEndian.Uint64(img[off+4:])
		start := off + 12
		if length > uint64(len(img))-start {
			return sections, false
		}
		sections = append(sections, refSection{string(img[off : off+4]), int(start), int(start + length)})
		off = start + length
	}
	return sections, true
}

// FuzzSections: on any bytes the walker never panics, agrees with the
// reference walk on every tag and payload, yields payloads that are
// sub-slices of the image capped at their section's end, and on a clean
// end has tiled the image exactly.
func FuzzSections(f *testing.F) {
	var p Payload
	p.PutUint64(3)
	valid := container(f, "TST1", 1, [2]string{"aaaa", "xyz"}, [2]string{"bbbb", string(AppendFloat64s(p.Bytes(), []float64{1, 2, 3}))}, [2]string{"empt", ""})
	f.Add(valid, byte(1), false)
	f.Add(valid[4:], byte(1), true)
	f.Add(valid[:len(valid)-3], byte(1), false)
	f.Add(valid, byte(0), false)
	f.Add([]byte("\x01sect\x00\x00\x00\x00\x00\x00\x04\x00"), byte(2), true)
	f.Fuzz(func(t *testing.T, data []byte, maxVersion byte, framed bool) {
		img := data
		if framed {
			img = append([]byte("TST1"), data...)
		}
		want, ok := referenceWalk(img, "TST1", maxVersion)
		s, err := Walk(img, "TST1", maxVersion)
		if err != nil {
			if ok || len(want) > 0 {
				t.Fatalf("Walk rejected a header the reference accepts: %v", err)
			}
			return
		}
		base := uintptr(unsafe.Pointer(unsafe.SliceData(img)))
		covered := headerLen
		i := 0
		for ; s.Next(); i++ {
			if i >= len(want) {
				t.Fatalf("section %d (%q) beyond the reference's %d", i, s.Tag(), len(want))
			}
			w, got := want[i], s.Payload()
			if s.Tag() != w.tag || len(got) != w.end-w.start || cap(got) != len(got) {
				t.Fatalf("section %d: %q len %d cap %d, want %q len %d", i, s.Tag(), len(got), cap(got), w.tag, w.end-w.start)
			}
			if len(got) > 0 && uintptr(unsafe.Pointer(&got[0])) != base+uintptr(w.start) {
				t.Fatalf("section %d payload does not sit at image offset %d", i, w.start)
			}
			covered += sectionHeaderLen + len(got)
		}
		if i != len(want) {
			t.Fatalf("walker yielded %d sections, reference %d", i, len(want))
		}
		if (s.Err() == nil) != ok {
			t.Fatalf("walker err %v, reference ok %v", s.Err(), ok)
		}
		if ok && covered != len(img) {
			t.Fatalf("sections cover %d of %d bytes", covered, len(img))
		}
	})
}

// TestArraysViewAlignedBytes: the array decoders round-trip every
// width, view an aligned image in place on a little-endian host, and
// copy a misaligned one, which then no longer shares its memory.
func TestArraysViewAlignedBytes(t *testing.T) {
	fs := []float64{1, math.Inf(-1), math.Copysign(0, -1), 2.5}
	is := []int32{-1, 0, 7, math.MaxInt32}
	ns := []int{-3, 0, math.MaxInt32}
	b := AppendFloat64s(nil, fs)
	b = AppendInts(b, ns)
	b = AppendInt32s(b, is)
	words := make([]uint64, (len(b)+8)/8)
	aligned := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(b)+1)
	for _, img := range [][]byte{aligned[:len(b)], aligned[1:]} {
		copy(img, b)
		gotF := Float64s(img[:32])
		gotN := Ints(img[32:56])
		gotI := Int32s(img[56:])
		for i, v := range fs {
			if math.Float64bits(gotF[i]) != math.Float64bits(v) {
				t.Fatalf("Float64s %v, want %v", gotF, fs)
			}
		}
		if !slices.Equal(gotN, ns) || !slices.Equal(gotI, is) {
			t.Fatalf("Ints %v Int32s %v, want %v %v", gotN, gotI, ns, is)
		}
		viewed := unsafe.Pointer(&gotF[0]) == unsafe.Pointer(&img[0])
		if wantView := hostLittleEndian && &img[0] == &aligned[0]; viewed != wantView {
			t.Fatalf("Float64s viewed the image: %v, want %v", viewed, wantView)
		}
	}
	if got := Float64s(nil); got == nil || len(got) != 0 {
		t.Fatal("empty input must decode to an empty, non-nil slice")
	}
}
