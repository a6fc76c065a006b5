package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/wire"
)

// Scalar trees travel between the construction tool and the
// visualization tool in the paper's pipeline (Table II's tv explicitly
// includes "the time cost for the visualization software to read the
// scalar tree"). This file gives SuperTree a compact binary format,
// every number little-endian:
//
//	magic "SFST" | version u8 (2) | 3 zero bytes |
//	numSuper u32 | numItems u32 |
//	scalars []f64 (numSuper)   |
//	parents []i32 (numSuper)   |
//	nodeOf  []i32 (numItems)   |
//	flat    []i32 (numItems)   |
//	index   []i32 (5·numSuper + 1)
//
// flat and index are the tree's own index (see SuperTree.index) written
// verbatim: the items in super-node preorder, then one slab holding the
// member ends, subtree sizes, subtree starts and the child lists in CSR
// form. Every array starts at a multiple of its word size from the
// start of the tree, and the scalars at offset 16, so a tree that
// starts 8-aligned in memory decodes to views of those bytes.
//
// There are two decoders. DecodeSuperTree (and ReadSuperTree) trust
// nothing: they check the parents, scalars and item mapping, rebuild
// the index from them and reject a tree whose stored index differs.
// DecodeSuperTreeTrusted checks only that the arrays fit and views
// them; it is for bytes the caller wrote itself and has already
// proved intact, and on the same accepted bytes both decode equal
// trees.

const (
	treeMagic   = "SFST"
	treeVersion = 2
)

// treeHeaderLen is the SFST prologue: magic, version, three zero
// bytes, numSuper and numItems.
const treeHeaderLen = 16

// AppendBinary appends the super tree in the binary format above to b
// and returns the extended slice (encoding.BinaryAppender). It never
// fails.
func (st *SuperTree) AppendBinary(b []byte) ([]byte, error) {
	n, m := st.Len(), st.NumItems()
	b = slices.Grow(b, int(treeSize(n, m)))
	b = append(b, treeMagic...)
	b = append(b, treeVersion, 0, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint32(b, uint32(m))
	b = wire.AppendFloat64s(b, st.Scalar)
	for _, a := range [...][]int32{st.Parent, st.NodeOf, st.flat, st.slab} {
		b = wire.AppendInt32s(b, a)
	}
	return b, nil
}

// WriteTo serializes the super tree in the binary format above.
func (st *SuperTree) WriteTo(w io.Writer) (int64, error) {
	b, _ := st.AppendBinary(nil)
	n, err := w.Write(b)
	return int64(n), err
}

// treeSize is the byte length of a tree with n super nodes and m
// items.
func treeSize(n, m int) int64 {
	return treeHeaderLen + 8*int64(n) + 4*(6*int64(n)+2*int64(m)+1)
}

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
	if v := b[4]; v != treeVersion {
		return 0, 0, 0, fmt.Errorf("core: unsupported tree version %d", v)
	}
	if b[5]|b[6]|b[7] != 0 {
		return 0, 0, 0, fmt.Errorf("core: tree header padding %x is not zero", b[5:8])
	}
	ns := binary.LittleEndian.Uint32(b[8:])
	ni := binary.LittleEndian.Uint32(b[12:])
	const maxReasonable = 1 << 30
	if ns > maxReasonable || ni > maxReasonable {
		return 0, 0, 0, fmt.Errorf("core: implausible tree sizes %d/%d", ns, ni)
	}
	return int(ns), int(ni), treeSize(int(ns), int(ni)), nil
}

// ReadSuperTree deserializes a super tree written by WriteTo and
// validates it as DecodeSuperTree does. It reads exactly the tree's
// bytes from r, growing its buffer only as they arrive, so memory
// stays proportional to the bytes read; trees of up to readAhead bytes
// decode with a constant number of allocations. The tree views that
// buffer.
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
// start of b and validates it before returning: the parents must be
// topological, the scalars NaN-free and strictly increasing away from
// the roots, every item mapped to a non-empty super node, and the
// stored index equal to the one those arrays build. Bytes past the
// tree are ignored, as ReadSuperTree leaves them unread. The declared
// counts are checked against len(b) before anything is allocated, and
// the decode makes a constant number of allocations.
//
// The tree views b wherever b's alignment allows (see wire.Float64s),
// so b must stay unmodified while the tree is in use.
func DecodeSuperTree(b []byte) (*SuperTree, error) {
	st, flat, slab, err := viewSuperTree(b)
	if err != nil {
		return nil, err
	}
	if err := st.validateLinks(); err != nil {
		return nil, fmt.Errorf("core: deserialized tree invalid: %w", err)
	}
	st.index()
	if !slices.Equal(st.flat, flat) || !slices.Equal(st.slab, slab) {
		return nil, fmt.Errorf("core: deserialized tree invalid: stored index differs from the tree's")
	}
	// index places every item under its in-range node, so of Validate's
	// checks only an empty super node remains possible.
	for s := range st.start {
		if st.start[s] == st.end[s] {
			return nil, fmt.Errorf("core: deserialized tree invalid: super node %d has no members", s)
		}
	}
	st.attachIndex(flat, slab)
	return st, nil
}

// DecodeSuperTreeTrusted is DecodeSuperTree without the validation: it
// checks the header and that the arrays fit in b, then views them, the
// stored index included, in O(1) and one allocation when b is 8-aligned
// on a little-endian host. The caller vouches for the bytes — a tree
// this process encoded, whose integrity it has checked since — and
// feeding it anything else trades error returns for wrong answers or
// panics in later reads. On bytes DecodeSuperTree accepts, both
// decoders return equal trees.
func DecodeSuperTreeTrusted(b []byte) (*SuperTree, error) {
	st, flat, slab, err := viewSuperTree(b)
	if err != nil {
		return nil, err
	}
	st.attachIndex(flat, slab)
	return st, nil
}

// viewSuperTree checks the header at the start of b and that the tree
// it declares fits in b, and returns the tree's parents, scalars and
// item mapping with its stored flat item array and index slab, each a
// view of b where alignment allows. The tree is not indexed.
func viewSuperTree(b []byte) (st *SuperTree, flat, slab []int32, err error) {
	n, m, size, err := decodeTreeHeader(b)
	if err != nil {
		return nil, nil, nil, err
	}
	if int64(len(b)) < size {
		return nil, nil, nil, fmt.Errorf("core: tree truncated: %d bytes for %d super nodes and %d items", len(b), n, m)
	}
	b = b[treeHeaderLen:size]
	st = &SuperTree{Scalar: wire.Float64s(b[:8*n])}
	ints := b[8*n:]
	next := func(k int) []int32 {
		a := wire.Int32s(ints[:4*k])
		ints = ints[4*k:]
		return a
	}
	st.Parent, st.NodeOf, flat, slab = next(n), next(m), next(m), next(5*n+1)
	return st, flat, slab, nil
}
