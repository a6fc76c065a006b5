package scalarfield

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/terrain"
	"repro/internal/wire"
)

// graphSectionMapper supplies the csr2 section's bytes to
// loadSnapshotFileOracle: given the payload's offset and length in the
// file, it returns a buffer holding exactly those bytes plus a release
// callback.
type graphSectionMapper func(offset, length int64) (data []byte, release func(), err error)

// loadSnapshotFileOracle is the io.ReaderAt section walker that
// DecodeSnapshotImage replaced, kept as the differential oracle for
// FuzzSnapshotCodec: a pread per section header, a staging copy per
// section, the csr2 payload compared with have in 32 KiB chunks or
// handed to mapGraph (nil reads it onto the heap), and fields decoded
// one value at a time with NaN rejected. It shares only the meta
// decoder and the cross-field checks (snapshotDecoder.finish) with the
// production decoder.
func loadSnapshotFileOracle(r io.ReaderAt, size int64, mapGraph graphSectionMapper, have *Graph) (*SnapshotRecord, func(), error) {
	release := func() {}
	readRange := func(off, length int64) ([]byte, func(), error) {
		buf := make([]byte, length)
		// An empty read at the end of a bytes.Reader is io.EOF; a file
		// (what this walker read in production) returns nil.
		if _, err := r.ReadAt(buf, off); err != nil && length > 0 {
			return nil, nil, err
		}
		return buf, func() {}, nil
	}
	if mapGraph == nil {
		mapGraph = readRange
	}
	if size < snapshotHeaderLen {
		return nil, release, fmt.Errorf("oracle: snapshot file truncated: %d bytes", size)
	}
	var head [snapshotHeaderLen]byte
	if _, err := r.ReadAt(head[:], 0); err != nil {
		return nil, release, err
	}
	if string(head[:4]) != snapshotMagic || head[4] != snapshotVersion {
		return nil, release, fmt.Errorf("oracle: bad snapshot header %q", head[:])
	}
	d := &snapshotDecoder{rec: &SnapshotRecord{}}
	fail := func(err error) (*SnapshotRecord, func(), error) {
		release()
		return nil, func() {}, err
	}
	off := int64(snapshotHeaderLen)
	for off < size {
		if size-off < sectionHeaderLen {
			return fail(fmt.Errorf("oracle: snapshot torn mid-section at offset %d", off))
		}
		var sh [sectionHeaderLen]byte
		if _, err := r.ReadAt(sh[:], off); err != nil {
			return fail(err)
		}
		tag := string(sh[:wire.TagLen])
		length := binary.LittleEndian.Uint64(sh[wire.TagLen:])
		payloadOff := off + sectionHeaderLen
		if length > uint64(size-payloadOff) {
			return fail(fmt.Errorf("oracle: section %q declares %d bytes, only %d remain", tag, length, size-payloadOff))
		}
		off = payloadOff + int64(length)
		if tag == "csr2" {
			if d.rec.Graph != nil {
				return fail(fmt.Errorf("oracle: snapshot has two csr2 sections"))
			}
			if have != nil {
				same, err := sameBytesOracle(r, payloadOff, int64(length), graph.ArenaWireBytes(have))
				if err != nil {
					return fail(err)
				}
				if same {
					d.rec.Graph = have
					continue
				}
			}
			data, rel, err := mapGraph(payloadOff, int64(length))
			if err != nil {
				return fail(err)
			}
			g, err := graph.GraphFromArena(data)
			if err != nil {
				rel()
				return fail(err)
			}
			d.rec.Graph = g
			release = rel
			continue
		}
		buf, _, err := readRange(payloadOff, int64(length))
		if err != nil {
			return fail(err)
		}
		if err := oracleSection(d, tag, wire.NewPayload(buf)); err != nil {
			return fail(err)
		}
	}
	rec, err := d.finish()
	if err != nil {
		return fail(err)
	}
	return rec, release, nil
}

// oracleSection decodes one non-csr2 section for the oracle walker.
func oracleSection(d *snapshotDecoder, tag string, p *wire.Payload) error {
	var err error
	switch tag {
	case "meta":
		if err := decodeSnapshotMeta(p, d.rec); err != nil {
			return err
		}
		d.haveMeta = true
	case "layo":
		if d.rec.Layout.Margin, err = p.Float64(); err != nil {
			return err
		}
		if d.rec.Layout.MinShare, err = p.Float64(); err != nil {
			return err
		}
		strategy, err := p.Int64()
		if err != nil {
			return err
		}
		d.rec.Layout.Strategy = terrain.Strategy(strategy)
	case "hght":
		if d.rec.Values, err = oracleField(p); err != nil {
			return err
		}
		d.haveValues = true
	case "colr":
		if d.rec.ColorValues, err = oracleField(p); err != nil {
			return err
		}
	case "tree":
		if d.tree, err = core.ReadSuperTree(bytes.NewReader(p.Bytes())); err != nil {
			return err
		}
	}
	return nil
}

// oracleField reads a counted f64 field one value at a time, rejecting
// NaN.
func oracleField(p *wire.Payload) ([]float64, error) {
	n, err := p.Uint64()
	if err != nil {
		return nil, err
	}
	if n > uint64(p.Remaining())/8 {
		return nil, fmt.Errorf("oracle: float64 count %d exceeds payload", n)
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = p.Float64(); err != nil {
			return nil, err
		}
		if math.IsNaN(out[i]) {
			return nil, fmt.Errorf("oracle: value %d is NaN", i)
		}
	}
	return out, nil
}

// sameBytesOracle reports whether the length bytes of r at off equal
// want, reading them in 32 KiB pieces.
func sameBytesOracle(r io.ReaderAt, off, length int64, want []byte) (bool, error) {
	if length != int64(len(want)) {
		return false, nil
	}
	buf := make([]byte, min(length, 32<<10))
	for len(want) > 0 {
		n := min(len(want), len(buf))
		if _, err := r.ReadAt(buf[:n], off); err != nil {
			return false, err
		}
		if !bytes.Equal(buf[:n], want[:n]) {
			return false, nil
		}
		off += int64(n)
		want = want[n:]
	}
	return true, nil
}
