package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"unsafe"
)

// Fixed-width arrays travel as their little-endian words back to back,
// with no count: a section's length says how many there are. Written
// at an 8-aligned offset of an 8-aligned image, such an array decodes
// to a view of the image itself, so a reader that trusts the bytes
// pays nothing per element. A misaligned image, a big-endian host, or
// an int narrower than the i64 words gets one converted copy instead.
// Every decoder takes a whole number of words and never returns nil.

// hostLittleEndian reports whether native byte order is the wire's.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Float64s returns the f64 words of b. The result views b when b is
// 8-aligned on a little-endian host: the caller must then neither
// modify it nor let b's backing memory go away while it is in use.
func Float64s(b []byte) []float64 {
	return words(b, 8, func(w []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(w)) })
}

// Int32s is Float64s for i32 words, viewed when b is 4-aligned.
func Int32s(b []byte) []int32 {
	return words(b, 4, func(w []byte) int32 { return int32(binary.LittleEndian.Uint32(w)) })
}

// Ints is Float64s for i64 words read as ints; where int is narrower,
// values outside its range are truncated.
func Ints(b []byte) []int {
	return words(b, 8, func(w []byte) int { return int(int64(binary.LittleEndian.Uint64(w))) })
}

// words views b as width-byte words of T when T is that wide and b is
// aligned to it on a little-endian host, and decodes a copy otherwise.
func words[T any](b []byte, width int, decode func([]byte) T) []T {
	n := len(b) / width
	if n == 0 {
		return []T{}
	}
	var zero T
	if hostLittleEndian && unsafe.Sizeof(zero) == uintptr(width) && uintptr(unsafe.Pointer(&b[0]))%uintptr(width) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = decode(b[width*i:])
	}
	return out
}

// AppendFloat64s appends vs to b as f64 words.
func AppendFloat64s(b []byte, vs []float64) []byte {
	return appendWords(b, vs, 8, func(b []byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	})
}

// AppendInt32s appends vs to b as i32 words.
func AppendInt32s(b []byte, vs []int32) []byte {
	return appendWords(b, vs, 4, func(b []byte, v int32) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) })
}

// AppendInts appends vs to b as i64 words.
func AppendInts(b []byte, vs []int) []byte {
	return appendWords(b, vs, 8, func(b []byte, v int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(int64(v))) })
}

// appendWords copies vs' memory when it already is the wire form, and
// encodes word by word otherwise.
func appendWords[T any](b []byte, vs []T, width int, encode func([]byte, T) []byte) []byte {
	if len(vs) == 0 {
		return b
	}
	if hostLittleEndian && unsafe.Sizeof(vs[0]) == uintptr(width) {
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), width*len(vs))...)
	}
	for _, v := range vs {
		b = encode(b, v)
	}
	return b
}

// castagnoli is the CRC-32C table Checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C (Castagnoli) of b, the checksum
// containers record for a section payload.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
