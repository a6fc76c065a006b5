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
// Hostile input is a design constraint, not an afterthought: declared
// lengths and counts never cause an allocation larger than the bytes
// that actually arrive (payloads are read in bounded chunks, and
// in-payload counts are validated against the remaining payload size
// before any slice is made), so a corrupt or adversarial header cannot
// balloon memory. Truncation and garbage surface as errors, never
// panics.
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

// Reader walks the sections of one container.
type Reader struct {
	br      *bufio.Reader
	Version byte
}

// NewReader validates the container header (magic match, version at
// most maxVersion) and returns a section iterator.
func NewReader(r io.Reader, magic string, maxVersion byte) (*Reader, error) {
	if len(magic) != TagLen {
		panic(fmt.Sprintf("wire: magic %q is not %d bytes", magic, TagLen))
	}
	br := bufio.NewReader(r)
	head := make([]byte, TagLen)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("wire: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("wire: bad magic %q, want %q", head, magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("wire: reading version: %w", err)
	}
	if version > maxVersion {
		return nil, fmt.Errorf("wire: unsupported version %d (max %d)", version, maxVersion)
	}
	return &Reader{br: br, Version: version}, nil
}

// Next returns the next section's tag and payload, or io.EOF after the
// last section. A container truncated mid-section is an
// io.ErrUnexpectedEOF, never a bare EOF, so callers can tell a clean
// end from a torn file.
func (r *Reader) Next() (tag string, payload *Payload, err error) {
	head := make([]byte, TagLen+8)
	if _, err := io.ReadFull(r.br, head[:TagLen]); err != nil {
		if err == io.EOF {
			return "", nil, io.EOF
		}
		return "", nil, fmt.Errorf("wire: reading section tag: %w", err)
	}
	if _, err := io.ReadFull(r.br, head[TagLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", nil, fmt.Errorf("wire: reading section length: %w", err)
	}
	length := binary.LittleEndian.Uint64(head[TagLen:])
	data, err := readBytes(r.br, length)
	if err != nil {
		return "", nil, fmt.Errorf("wire: reading %q payload: %w", head[:TagLen], err)
	}
	return string(head[:TagLen]), &Payload{data: data}, nil
}

// readBytes reads exactly n bytes in bounded chunks, so a hostile
// length cannot force a huge allocation before any payload arrives.
func readBytes(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 16
	first := n
	if first > chunk {
		first = chunk
	}
	out := make([]byte, 0, first)
	buf := make([]byte, first)
	for uint64(len(out)) < n {
		k := n - uint64(len(out))
		if k > uint64(len(buf)) {
			k = uint64(len(buf))
		}
		if _, err := io.ReadFull(r, buf[:k]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		out = append(out, buf[:k]...)
	}
	return out, nil
}

// Payload builds or consumes one section's bytes. The zero value is an
// empty payload ready for Put calls; Reader.Next returns payloads
// positioned at their first byte. All Get methods validate against the
// remaining length before allocating, and return errors (never panic)
// on truncated or malformed data.
type Payload struct {
	data []byte
	off  int
}

// NewPayload wraps section bytes for decoding, for callers that walk
// a container image in memory by explicit offsets instead of through
// Reader. The payload aliases data.
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
	n := int(binary.LittleEndian.Uint32(p.data[p.off:]))
	p.off += 4
	if err := p.need(n); err != nil {
		return "", err
	}
	s := string(p.data[p.off : p.off+n])
	p.off += n
	return s, nil
}

// PutFloat64s appends a u64 count followed by the raw f64 values.
func (p *Payload) PutFloat64s(vs []float64) {
	p.PutUint64(uint64(len(vs)))
	for _, v := range vs {
		p.PutFloat64(v)
	}
}

// Float64s reads a counted f64 slice. The count is validated against
// the remaining payload bytes before the slice is allocated.
func (p *Payload) Float64s() ([]float64, error) {
	n, err := p.Uint64()
	if err != nil {
		return nil, err
	}
	if n > uint64(p.Remaining())/8 {
		return nil, fmt.Errorf("wire: float64 count %d exceeds remaining payload (%d bytes)", n, p.Remaining())
	}
	out := make([]float64, n)
	src := p.data[p.off : p.off+8*len(out)]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	p.off += len(src)
	return out, nil
}

// PutInt32s appends a u64 count followed by the raw i32 values.
func (p *Payload) PutInt32s(vs []int32) {
	p.PutUint64(uint64(len(vs)))
	for _, v := range vs {
		p.data = binary.LittleEndian.AppendUint32(p.data, uint32(v))
	}
}

// Int32s reads a counted i32 slice, count-validated like Float64s.
func (p *Payload) Int32s() ([]int32, error) {
	n, err := p.Uint64()
	if err != nil {
		return nil, err
	}
	if n > uint64(p.Remaining())/4 {
		return nil, fmt.Errorf("wire: int32 count %d exceeds remaining payload (%d bytes)", n, p.Remaining())
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p.data[p.off:]))
		p.off += 4
	}
	return out, nil
}

// PutBytes appends raw bytes with no length prefix; the section length
// delimits them. Meant for one trailing nested-codec blob per section.
func (p *Payload) PutBytes(b []byte) { p.data = append(p.data, b...) }
