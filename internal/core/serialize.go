package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
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

// AppendBinary appends the super tree in the binary format above to b
// and returns the extended slice (encoding.BinaryAppender). It never
// fails.
func (st *SuperTree) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, treeHeaderLen+4*len(st.Parent)+8*len(st.Scalar)+4*len(st.NodeOf))
	b = append(b, treeMagic...)
	b = append(b, treeVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(st.Len()))
	b = binary.LittleEndian.AppendUint32(b, uint32(st.NumItems()))
	for _, p := range st.Parent {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	for _, v := range st.Scalar {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, s := range st.NodeOf {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
	}
	return b, nil
}

// WriteTo serializes the super tree in the binary format above.
func (st *SuperTree) WriteTo(w io.Writer) (int64, error) {
	b, _ := st.AppendBinary(nil)
	n, err := w.Write(b)
	return int64(n), err
}

// treeHeaderLen is the SFST prologue: magic, version, numSuper and
// numItems.
const treeHeaderLen = len(treeMagic) + 1 + 8

// readAhead bounds the bytes ReadSuperTree allocates before a tree's
// arrays arrive: a hostile header can force at most this many, and
// trees up to this size read into one allocation.
const readAhead = 1 << 20

// decodeTreeHeader validates the SFST prologue at the start of b and
// returns the declared counts with the byte length of the whole tree.
func decodeTreeHeader(b []byte) (numSuper, numItems int, size int64, err error) {
	if len(b) >= len(treeMagic) && string(b[:len(treeMagic)]) != treeMagic {
		return 0, 0, 0, fmt.Errorf("core: bad magic %q, want %q", b[:len(treeMagic)], treeMagic)
	}
	if len(b) < treeHeaderLen {
		return 0, 0, 0, fmt.Errorf("core: tree header truncated: %d bytes", len(b))
	}
	if v := b[len(treeMagic)]; v != treeVersion {
		return 0, 0, 0, fmt.Errorf("core: unsupported tree version %d", v)
	}
	ns := binary.LittleEndian.Uint32(b[len(treeMagic)+1:])
	ni := binary.LittleEndian.Uint32(b[len(treeMagic)+5:])
	const maxReasonable = 1 << 30
	if ns > maxReasonable || ni > maxReasonable {
		return 0, 0, 0, fmt.Errorf("core: implausible tree sizes %d/%d", ns, ni)
	}
	return int(ns), int(ni), int64(treeHeaderLen) + 12*int64(ns) + 4*int64(ni), nil
}

// ReadSuperTree deserializes a super tree written by WriteTo and
// validates it before returning. It reads exactly the tree's bytes
// from r, growing its buffer only as they arrive, so memory stays
// proportional to the bytes read; trees of up to readAhead bytes
// decode with a constant number of allocations.
func ReadSuperTree(r io.Reader) (*SuperTree, error) {
	var hdr [treeHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading tree header: %w", err)
	}
	_, _, size, err := decodeTreeHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	b := append(make([]byte, 0, min(size, readAhead)), hdr[:]...)
	for int64(len(b)) < size {
		n := int(min(size-int64(len(b)), readAhead))
		b = slices.Grow(b, n)
		if _, err := io.ReadFull(r, b[len(b):len(b)+n]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("core: reading tree arrays: %w", err)
		}
		b = b[:len(b)+n]
	}
	return DecodeSuperTree(b)
}

// DecodeSuperTree deserializes the super tree WriteTo wrote at the
// start of b and validates it before returning; bytes past the tree
// are ignored, as ReadSuperTree leaves them unread. The declared
// counts are checked against len(b) before anything is allocated, the
// arrays decode in bulk, and the decode makes a constant number of
// allocations. The tree does not alias b.
func DecodeSuperTree(b []byte) (*SuperTree, error) {
	numSuper, numItems, size, err := decodeTreeHeader(b)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) < size {
		return nil, fmt.Errorf("core: tree truncated: %d bytes for %d super nodes and %d items", len(b), numSuper, numItems)
	}
	// Parent and NodeOf share one allocation; neither ever grows.
	ints := make([]int32, numSuper+numItems)
	st := &SuperTree{
		Parent: ints[:numSuper:numSuper],
		Scalar: make([]float64, numSuper),
		NodeOf: ints[numSuper:],
	}
	b = decodeInt32s(st.Parent, b[treeHeaderLen:])
	for i := range st.Scalar {
		st.Scalar[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	decodeInt32s(st.NodeOf, b[8*numSuper:])
	if err := st.validateLinks(); err != nil {
		return nil, fmt.Errorf("core: deserialized tree invalid: %w", err)
	}
	st.index()
	// index places every item under its in-range node, so of Validate's
	// checks only an empty super node remains possible.
	for s := range st.start {
		if st.start[s] == st.end[s] {
			return nil, fmt.Errorf("core: deserialized tree invalid: super node %d has no members", s)
		}
	}
	return st, nil
}

// decodeInt32s fills dst with the little-endian words at the start of
// b and returns the rest of b.
func decodeInt32s(dst []int32, b []byte) []byte {
	src := b[:4*len(dst)]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return b[len(src):]
}
