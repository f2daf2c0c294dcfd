package vector

// The column codec: the one binary spelling of a column. WAL ingest
// records, checkpoint images (through MarshalBinary) and anything else
// that moves a column out of memory use this pair and nothing else.
//
//	column  = [u8 type][ints][floats][bools][strings][nulls]
//	ints    = [u32 n][n × zigzag varint]      Int64, Timestamp payload
//	floats  = [u32 n][n × u64 IEEE-754 bits]  Float64 payload
//	bools   = [u32 n][n × u8]                 Bool payload
//	strings = [u32 n][n × ([u32 len][bytes])] String payload
//	nulls   = [u32 n][n × u8]                 NULL mask, n = 0 or rows
//
// Fixed-width fields are little-endian. All five sections are always
// present; only the one matching the type byte may be non-empty. The
// layout is frozen: logs written under walFormatV1 must keep replaying,
// so a change here needs a new format byte in the record header, not an
// edit.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorruptColumn reports bytes that are not a column encoding: an
// unknown type byte, a section that runs past the input, a payload that
// does not belong to the type, or a NULL mask of the wrong length.
var ErrCorruptColumn = errors.New("vector: corrupt column encoding")

func corruptColumn(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptColumn, fmt.Sprintf(format, args...))
}

// AppendColumn appends v's encoding to dst and returns the extended
// buffer. dst stays the caller's: nothing is retained, and with enough
// capacity the call does not allocate.
func AppendColumn(dst []byte, v *Vector) []byte {
	b := append(dst, byte(v.typ))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v.ints)))
	for _, x := range v.ints {
		b = binary.AppendVarint(b, x)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v.flts)))
	for _, x := range v.flts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	b = appendBools(b, v.bools)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v.strs)))
	for _, s := range v.strs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return appendBools(b, v.nulls)
}

func appendBools(b []byte, vs []bool) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// sectionCount reads a section's element count and checks that n
// elements of at least width bytes each fit in what follows, so a
// corrupt count can never size an allocation the input does not back.
func sectionCount(p []byte, width int, what string) (int, []byte, error) {
	if len(p) < 4 {
		return 0, nil, corruptColumn("truncated %s count", what)
	}
	n := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(n)*uint64(width) > uint64(len(p)) {
		return 0, nil, corruptColumn("%d %s in %d bytes", n, what, len(p))
	}
	return int(n), p, nil
}

func decodeBools(p []byte, what string) ([]bool, []byte, error) {
	n, p, err := sectionCount(p, 1, what)
	if err != nil || n == 0 {
		return nil, p, err
	}
	out := make([]bool, n)
	for i, b := range p[:n] {
		out[i] = b != 0
	}
	return out, p[n:], nil
}

// DecodeColumn decodes one column from the front of p and returns it
// with the bytes that follow. The vector shares nothing with p. Input
// that AppendColumn cannot have produced fails with ErrCorruptColumn.
func DecodeColumn(p []byte) (*Vector, []byte, error) {
	if len(p) == 0 {
		return nil, nil, corruptColumn("missing type byte")
	}
	v := &Vector{typ: Type(p[0])}
	if v.typ == Unknown || v.typ > Timestamp {
		return nil, nil, corruptColumn("unknown type byte 0x%02x", p[0])
	}
	n, p, err := sectionCount(p[1:], 1, "ints") // a varint is ≥ 1 byte
	if err != nil {
		return nil, nil, err
	}
	if n > 0 {
		v.ints = make([]int64, n)
		for i := range v.ints {
			x, sz := binary.Varint(p)
			if sz <= 0 {
				return nil, nil, corruptColumn("bad varint at int %d", i)
			}
			v.ints[i], p = x, p[sz:]
		}
	}
	if n, p, err = sectionCount(p, 8, "floats"); err != nil {
		return nil, nil, err
	}
	if n > 0 {
		v.flts = make([]float64, n)
		for i := range v.flts {
			v.flts[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
		}
		p = p[n*8:]
	}
	if v.bools, p, err = decodeBools(p, "bools"); err != nil {
		return nil, nil, err
	}
	if n, p, err = sectionCount(p, 4, "strings"); err != nil { // a string is ≥ its length prefix
		return nil, nil, err
	}
	if n > 0 {
		v.strs = make([]string, n)
		for i := range v.strs {
			var sz int
			if sz, p, err = sectionCount(p, 1, "string bytes"); err != nil {
				return nil, nil, err
			}
			v.strs[i], p = string(p[:sz]), p[sz:]
		}
	}
	if v.nulls, p, err = decodeBools(p, "nulls"); err != nil {
		return nil, nil, err
	}
	rows := v.Len()
	if len(v.ints)+len(v.flts)+len(v.bools)+len(v.strs) != rows {
		return nil, nil, corruptColumn("%s column carries a payload of another type", v.typ)
	}
	if len(v.nulls) != 0 && len(v.nulls) != rows {
		return nil, nil, corruptColumn("NULL mask of %d for %d rows", len(v.nulls), rows)
	}
	return v, p, nil
}

// MarshalBinary implements encoding.BinaryMarshaler over AppendColumn,
// which is how gob writes the columns of a checkpoint image.
func (v *Vector) MarshalBinary() ([]byte, error) {
	return AppendColumn(nil, v), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler over
// DecodeColumn; data must hold exactly one column.
func (v *Vector) UnmarshalBinary(data []byte) error {
	dec, rest, err := DecodeColumn(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return corruptColumn("%d trailing bytes after column", len(rest))
	}
	*v = *dec
	return nil
}
