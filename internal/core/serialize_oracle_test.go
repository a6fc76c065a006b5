package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// readSuperTreeOracle is the element-at-a-time SFST reader that
// DecodeSuperTree replaced, kept as the differential oracle for
// FuzzReadSuperTree: each array is read through a fixed scratch buffer
// and decoded one value at a time, then the tree passes validateLinks
// (which rejects NaN scalars), index and the full Validate, and the
// stored index must equal the one index built.
func readSuperTreeOracle(r io.Reader) (*SuperTree, error) {
	scratch := make([]byte, 1<<15)
	hdr := scratch[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("oracle: reading tree magic: %w", err)
	}
	if string(hdr) != treeMagic {
		return nil, fmt.Errorf("oracle: bad magic %q", hdr)
	}
	hdr = scratch[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("oracle: reading tree version: %w", err)
	}
	if hdr[0] != treeVersion || hdr[1] != 0 || hdr[2] != 0 || hdr[3] != 0 {
		return nil, fmt.Errorf("oracle: unsupported tree version %d or padding %x", hdr[0], hdr[1:4])
	}
	hdr = scratch[:8]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("oracle: reading tree header: %w", err)
	}
	numSuper := binary.LittleEndian.Uint32(hdr)
	numItems := binary.LittleEndian.Uint32(hdr[4:])
	const maxReasonable = 1 << 30
	if numSuper > maxReasonable || numItems > maxReasonable {
		return nil, fmt.Errorf("oracle: implausible tree sizes %d/%d", numSuper, numItems)
	}
	st := &SuperTree{}
	var flat, slab []int32
	var err error
	if st.Scalar, err = readArrayOracle(r, int(numSuper), scratch, decodeFloat64Oracle); err != nil {
		return nil, fmt.Errorf("oracle: reading scalars: %w", err)
	}
	if st.Parent, err = readArrayOracle(r, int(numSuper), scratch, decodeInt32Oracle); err != nil {
		return nil, fmt.Errorf("oracle: reading parents: %w", err)
	}
	if st.NodeOf, err = readArrayOracle(r, int(numItems), scratch, decodeInt32Oracle); err != nil {
		return nil, fmt.Errorf("oracle: reading item mapping: %w", err)
	}
	if flat, err = readArrayOracle(r, int(numItems), scratch, decodeInt32Oracle); err != nil {
		return nil, fmt.Errorf("oracle: reading flat items: %w", err)
	}
	if slab, err = readArrayOracle(r, 5*int(numSuper)+1, scratch, decodeInt32Oracle); err != nil {
		return nil, fmt.Errorf("oracle: reading index: %w", err)
	}
	if err := st.validateLinks(); err != nil {
		return nil, err
	}
	st.index()
	if err := st.Validate(); err != nil {
		return nil, err
	}
	for i, v := range flat {
		if st.flat[i] != v {
			return nil, fmt.Errorf("oracle: stored flat item %d is %d, index builds %d", i, v, st.flat[i])
		}
	}
	for i, v := range slab {
		if st.slab[i] != v {
			return nil, fmt.Errorf("oracle: stored index word %d is %d, index builds %d", i, v, st.slab[i])
		}
	}
	return st, nil
}

func decodeInt32Oracle(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }

func decodeFloat64Oracle(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// readArrayOracle reads exactly n little-endian values through
// scratch, growing the result past 1<<16 elements only as data
// arrives.
func readArrayOracle[T int32 | float64](r io.Reader, n int, scratch []byte, decode func([]byte) T) ([]T, error) {
	width := binary.Size(T(0))
	out := make([]T, 0, min(n, 1<<16))
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
