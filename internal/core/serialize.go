package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Scalar trees travel between the construction tool and the
// visualization tool in the paper's pipeline (Table II's tv explicitly
// includes "the time cost for the visualization software to read the
// scalar tree"). This file gives SuperTree a compact binary format:
//
//	magic "SFST" | version u8 |
//	numSuper u32 | numItems u32 |
//	parents  []i32 (numSuper)  |
//	scalars  []f64 (numSuper)  |
//	nodeOf   []i32 (numItems)
//
// Members are reconstructed from nodeOf, so the encoding is
// O(numSuper + numItems) with no redundancy.

const (
	treeMagic   = "SFST"
	treeVersion = 1
)

// WriteTo serializes the super tree in the binary format above.
func (st *SuperTree) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(bw.WriteString(treeMagic)); err != nil {
		return n, err
	}
	if err := bw.WriteByte(treeVersion); err != nil {
		return n, err
	}
	n++
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint32(st.Len())); err != nil {
		return n, err
	}
	if err := write(uint32(st.NumItems())); err != nil {
		return n, err
	}
	if err := write(st.Parent); err != nil {
		return n, err
	}
	if err := write(st.Scalar); err != nil {
		return n, err
	}
	if err := write(st.NodeOf); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// readAhead bounds the elements of each array allocated before its
// payload arrives: a hostile header can force at most this many, and
// trees up to this size decode with one allocation per array.
const readAhead = 1 << 16

// ReadSuperTree deserializes a super tree written by WriteTo and
// validates it before returning. It reads exactly the tree's bytes
// from r, and for trees of up to readAhead super nodes and items it
// makes a constant number of allocations.
func ReadSuperTree(r io.Reader) (*SuperTree, error) {
	scratch := make([]byte, 1<<15)
	hdr := scratch[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("core: reading tree magic: %w", err)
	}
	if string(hdr) != treeMagic {
		return nil, fmt.Errorf("core: bad magic %q, want %q", hdr, treeMagic)
	}
	hdr = scratch[:1]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("core: reading tree version: %w", err)
	}
	if hdr[0] != treeVersion {
		return nil, fmt.Errorf("core: unsupported tree version %d", hdr[0])
	}
	hdr = scratch[:8]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("core: reading tree header: %w", err)
	}
	numSuper := binary.LittleEndian.Uint32(hdr)
	numItems := binary.LittleEndian.Uint32(hdr[4:])
	const maxReasonable = 1 << 30
	if numSuper > maxReasonable || numItems > maxReasonable {
		return nil, fmt.Errorf("core: implausible tree sizes %d/%d", numSuper, numItems)
	}
	st := &SuperTree{}
	var err error
	if st.Parent, err = readArray(r, int(numSuper), scratch, decodeInt32); err != nil {
		return nil, fmt.Errorf("core: reading parents: %w", err)
	}
	if st.Scalar, err = readArray(r, int(numSuper), scratch, decodeFloat64); err != nil {
		return nil, fmt.Errorf("core: reading scalars: %w", err)
	}
	if st.NodeOf, err = readArray(r, int(numItems), scratch, decodeInt32); err != nil {
		return nil, fmt.Errorf("core: reading item mapping: %w", err)
	}
	if err := st.validateLinks(); err != nil {
		return nil, fmt.Errorf("core: deserialized tree invalid: %w", err)
	}
	st.index()
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("core: deserialized tree invalid: %w", err)
	}
	return st, nil
}

func decodeInt32(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }

func decodeFloat64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// readArray reads exactly n little-endian values through scratch,
// growing the result past readAhead only as data actually arrives, so
// memory stays proportional to the bytes read rather than the declared
// count.
func readArray[T int32 | float64](r io.Reader, n int, scratch []byte, decode func([]byte) T) ([]T, error) {
	width := binary.Size(T(0))
	out := make([]T, 0, min(n, readAhead))
	for len(out) < n {
		b := scratch[:min(n-len(out), len(scratch)/width)*width]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[width:] {
			out = append(out, decode(b))
		}
	}
	return out, nil
}
