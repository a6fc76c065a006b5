// Package wire is the versioned, length-prefixed section container
// every multi-part binary artifact of this repository travels in.
//
// A container is
//
//	magic (4 bytes) | version (1 byte) | section* | EOF
//
// and a section is
//
//	tag (4 bytes) | payload length (u64 LE) | payload bytes
//
// Sections are self-delimiting, so a reader that does not know a tag
// skips it: fields appended by a future writer version decode cleanly
// on an old reader, which is the compatibility contract the snapshot
// codec (scalarfield.SaveSnapshot) is built on. Numbers are
// little-endian throughout, matching the existing super-tree codec in
// internal/core.
//
// A container decodes from the bytes the caller already holds: Walk
// is the one parser of the framing, and every payload it yields is a
// bounds-checked sub-slice of the image, never a copy.
//
// Hostile input is a design constraint, not an afterthought: declared
// lengths and counts never cause an allocation larger than the bytes
// in hand (a section length is checked against the rest of the image
// before its payload is sliced, and in-payload counts are validated
// against the remaining payload size before any slice is made), so a
// corrupt or adversarial header cannot balloon memory. Truncation and
// garbage surface as errors, never panics.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// TagLen is the fixed byte length of a section tag.
const TagLen = 4

// Writer emits one container: magic + version at construction, then
// any number of sections. Callers must Flush before using the
// underlying writer again.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter starts a container with the given 4-byte magic and
// version. It panics on a malformed magic — a compile-time constant in
// every caller — and returns any underlying write error.
func NewWriter(w io.Writer, magic string, version byte) (*Writer, error) {
	if len(magic) != TagLen {
		panic(fmt.Sprintf("wire: magic %q is not %d bytes", magic, TagLen))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(version); err != nil {
		return nil, err
	}
	return &Writer{bw: bw}, nil
}

// Section appends one tagged section with the given payload bytes.
func (w *Writer) Section(tag string, payload []byte) error {
	if len(tag) != TagLen {
		panic(fmt.Sprintf("wire: tag %q is not %d bytes", tag, TagLen))
	}
	if _, err := w.bw.WriteString(tag); err != nil {
		return err
	}
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(payload)))
	if _, err := w.bw.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.bw.Write(payload)
	return err
}

// Flush drains the internal buffer to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// headerLen is the container prologue: magic plus the version byte.
const headerLen = TagLen + 1

// sectionHeaderLen is the per-section framing: tag plus u64 length.
const sectionHeaderLen = TagLen + 8

// Sections walks the sections of one container image held in memory.
// Each payload is a sub-slice of the image whose capacity ends at the
// section's end, so the walk allocates nothing and copies nothing, and
// a payload can be neither read nor appended past its section.
//
//	s, err := wire.Walk(img, magic, maxVersion)
//	for s.Next() {
//		... s.Tag(), s.Payload() ...
//	}
//	err = s.Err()
//
// A caller may stop before the last section; the sections it did not
// reach are not checked.
type Sections struct {
	img     []byte
	off     int // start of the next section header
	tag     int // offset of the current section's tag
	payload []byte
	err     error
	// Version is the container's version byte.
	Version byte
}

// Walk validates the container header at the start of img (magic
// match, version at most maxVersion) and returns a walker positioned
// before the first section.
func Walk(img []byte, magic string, maxVersion byte) (Sections, error) {
	if len(magic) != TagLen {
		panic(fmt.Sprintf("wire: magic %q is not %d bytes", magic, TagLen))
	}
	if len(img) < headerLen {
		return Sections{}, fmt.Errorf("wire: container header truncated: %d bytes", len(img))
	}
	if string(img[:TagLen]) != magic {
		return Sections{}, fmt.Errorf("wire: bad magic %q, want %q", img[:TagLen], magic)
	}
	version := img[TagLen]
	if version > maxVersion {
		return Sections{}, fmt.Errorf("wire: unsupported version %d (max %d)", version, maxVersion)
	}
	return Sections{img: img, off: headerLen, Version: version}, nil
}

// Next advances to the next section and reports whether there is one.
// It returns false at the end of the image, and on a section whose
// header or payload the image cuts short: a torn container is an error
// Err reports, never a clean end.
func (s *Sections) Next() bool {
	if s.err != nil || s.off == len(s.img) {
		return false
	}
	if rest := len(s.img) - s.off; rest < sectionHeaderLen {
		s.err = fmt.Errorf("wire: section header torn at offset %d: %d bytes left", s.off, rest)
		return false
	}
	length := binary.LittleEndian.Uint64(s.img[s.off+TagLen:])
	start := s.off + sectionHeaderLen
	if length > uint64(len(s.img)-start) {
		s.err = fmt.Errorf("wire: section %q declares %d bytes, only %d remain",
			s.img[s.off:s.off+TagLen], length, len(s.img)-start)
		return false
	}
	end := start + int(length)
	s.tag, s.payload, s.off = s.off, s.img[start:end:end], end
	return true
}

// Tag returns the current section's tag.
func (s *Sections) Tag() string { return string(s.img[s.tag : s.tag+TagLen]) }

// Payload returns the current section's payload, a sub-slice of the
// image.
func (s *Sections) Payload() []byte { return s.payload }

// Err returns the error that ended the walk: nil after the last
// section, non-nil for a torn one.
func (s *Sections) Err() error { return s.err }

// Payload builds or consumes one section's bytes. The zero value is an
// empty payload ready for Put calls; NewPayload wraps a payload Walk
// yielded for decoding. All Get methods validate against the
// remaining length before allocating, and return errors (never panic)
// on truncated or malformed data.
type Payload struct {
	data []byte
	off  int
}

// NewPayload wraps section bytes for decoding, positioned at their
// first byte. The payload aliases data.
func NewPayload(data []byte) *Payload { return &Payload{data: data} }

// Bytes returns the built payload.
func (p *Payload) Bytes() []byte { return p.data }

// Remaining reports the unread byte count.
func (p *Payload) Remaining() int { return len(p.data) - p.off }

func (p *Payload) need(n int) error {
	if p.Remaining() < n {
		return fmt.Errorf("wire: payload truncated: need %d bytes, have %d", n, p.Remaining())
	}
	return nil
}

// PutUint64 appends a u64.
func (p *Payload) PutUint64(v uint64) {
	p.data = binary.LittleEndian.AppendUint64(p.data, v)
}

// Uint64 reads a u64.
func (p *Payload) Uint64() (uint64, error) {
	if err := p.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(p.data[p.off:])
	p.off += 8
	return v, nil
}

// PutInt64 appends an i64 (two's complement).
func (p *Payload) PutInt64(v int64) { p.PutUint64(uint64(v)) }

// Int64 reads an i64.
func (p *Payload) Int64() (int64, error) {
	v, err := p.Uint64()
	return int64(v), err
}

// PutBool appends a bool as one byte.
func (p *Payload) PutBool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	p.data = append(p.data, b)
}

// Bool reads a bool; any nonzero byte is true.
func (p *Payload) Bool() (bool, error) {
	if err := p.need(1); err != nil {
		return false, err
	}
	v := p.data[p.off] != 0
	p.off++
	return v, nil
}

// PutFloat64 appends an f64 bit pattern.
func (p *Payload) PutFloat64(v float64) { p.PutUint64(math.Float64bits(v)) }

// Float64 reads an f64.
func (p *Payload) Float64() (float64, error) {
	v, err := p.Uint64()
	return math.Float64frombits(v), err
}

// PutString appends a u32 length followed by the bytes.
func (p *Payload) PutString(s string) {
	p.data = binary.LittleEndian.AppendUint32(p.data, uint32(len(s)))
	p.data = append(p.data, s...)
}

// String reads a length-prefixed string. The declared length is
// checked against the remaining payload before any copy.
func (p *Payload) String() (string, error) {
	if err := p.need(4); err != nil {
		return "", err
	}
	// Compared before it becomes an int: where int is 32 bits, a
	// length of 2³¹ or more would turn negative and pass need.
	length := binary.LittleEndian.Uint32(p.data[p.off:])
	p.off += 4
	if uint64(length) > uint64(p.Remaining()) {
		return "", fmt.Errorf("wire: payload truncated: need %d bytes, have %d", length, p.Remaining())
	}
	n := int(length)
	s := string(p.data[p.off : p.off+n])
	p.off += n
	return s, nil
}
