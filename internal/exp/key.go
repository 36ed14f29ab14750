package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// The canonical key encoding. A cache key is the concatenation of its
// parts, each appended by one of the functions below, so a key type
// implements appendKey-style methods (AppendKey(b []byte) []byte) that
// list every field that can change a result, in a fixed order:
//
//   - strings are length-prefixed, so ("ab","c") and ("a","bc") differ;
//   - ints are zig-zag varints;
//   - floats are their IEEE-754 bits (math.Float64bits), little-endian;
//   - bools are one byte;
//   - slices carry their length before their elements.
//
// Every part is self-delimiting, so a sequence of parts decodes
// uniquely: two keys are equal only when every part is. Two inputs
// that run identically may share a key (nil and empty slices encode
// alike); inputs that run differently must not, which the per-type
// field-coverage tests check field by field.
//
// The encoded bytes are the key: memo keys that stay in process use
// them directly behind a plain "stage:" prefix. Encoded bytes may hold
// a ':' themselves, so an unstaged memo key, like a key that leaves the
// process (a file name, a telemetry event), uses HashKey's hex digest.

// AppendString appends s, length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendInt appends v as a varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendInt64 appends v as a varint.
func AppendInt64(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendFloat appends f's IEEE-754 bits.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendLen appends a slice length; callers then append the elements.
func AppendLen(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

// AppendInts appends vs with its length; T covers int-based enums.
func AppendInts[T ~int](b []byte, vs []T) []byte {
	b = AppendLen(b, len(vs))
	for _, v := range vs {
		b = AppendInt(b, int(v))
	}
	return b
}

// AppendFloats appends fs with its length.
func AppendFloats(b []byte, fs []float64) []byte {
	b = AppendLen(b, len(fs))
	for _, f := range fs {
		b = AppendFloat(b, f)
	}
	return b
}

// AppendBools appends vs with its length.
func AppendBools(b []byte, vs []bool) []byte {
	b = AppendLen(b, len(vs))
	for _, v := range vs {
		b = AppendBool(b, v)
	}
	return b
}

// AppendStrings appends ss with its length.
func AppendStrings(b []byte, ss []string) []byte {
	b = AppendLen(b, len(ss))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// HashKey returns the lowercase hex SHA-256 of an encoded key: the
// fixed-width, printable form for keys used as file names or shown in
// telemetry.
func HashKey(b []byte) string {
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}
