package datacell

// Record framing for the WAL. The ingest record is on the hot path of
// every durable Ingest call, so records use a fixed little-endian layout
// rather than a reflective encoding:
//
//	[u8 format][u8 kind]
//	'S': [str stmt]
//	'I': [str stream][u16 ncols] ncols × column
//	'F': [str query][u64 count]
//
//	str    = [u32 len][len bytes]
//	column = the vector package's column codec (vector.AppendColumn /
//	         vector.DecodeColumn) — the same bytes a checkpoint image
//	         holds for a column
//
// This file knows the framing only; what a column looks like on disk is
// the vector package's business. walFormatV1 names the pair: a change to
// either layout takes a new format byte, so old logs keep replaying.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/vector"
	"repro/internal/wal"
)

const walFormatV1 byte = 0x01

// walRecord is the on-log representation of one durable event. Exactly
// the fields for its Kind are populated.
type walRecord struct {
	Kind   byte
	Stmt   string           // 'S': statement text
	Stream string           // 'I': target stream
	Cols   []*vector.Vector // 'I': batch columns (user schema, no ts)
	Query  string           // 'F': query key (lower-cased name)
	Count  int64            // 'F': cumulative delivered tuples
}

// encodeRecord appends rec's encoding to dst, straight from the live
// vectors of an 'I' record. dst stays the caller's: with a reused buffer
// the ingest path encodes without allocating — ingest throughput under
// the WAL is fsync- and GC-bound, so every avoided per-batch allocation
// is visible.
func encodeRecord(dst []byte, rec *walRecord) ([]byte, error) {
	b := append(dst, walFormatV1, rec.Kind)
	switch rec.Kind {
	case recStmt:
		b = putStr(b, rec.Stmt)
	case recIngest:
		if len(rec.Cols) > math.MaxUint16 {
			return nil, fmt.Errorf("wal record: %d columns", len(rec.Cols))
		}
		b = putStr(b, rec.Stream)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(rec.Cols)))
		for _, c := range rec.Cols {
			b = vector.AppendColumn(b, c)
		}
	case recFrontier:
		b = putStr(b, rec.Query)
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.Count))
	default:
		return nil, fmt.Errorf("wal record: unknown kind %q", rec.Kind)
	}
	return b, nil
}

func putStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// walReader walks a record with bounds checks on every read. The WAL's
// CRC rejects bit rot, but a record is still outside input: every
// failure is ErrCorruptWAL, never a panic or an oversized allocation.
type walReader struct {
	p   []byte
	off int
}

func (r *walReader) corrupt(what string) error {
	return fmt.Errorf("%w: truncated record (%s at offset %d)", wal.ErrCorruptWAL, what, r.off)
}

func (r *walReader) bytes(n int, what string) ([]byte, error) {
	if n < 0 || n > len(r.p)-r.off {
		return nil, r.corrupt(what)
	}
	b := r.p[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *walReader) str(what string) (string, error) {
	nb, err := r.bytes(4, what)
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(binary.LittleEndian.Uint32(nb)), what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func decodeRecord(p []byte) (*walRecord, error) {
	r := &walReader{p: p}
	hdr, err := r.bytes(2, "header")
	if err != nil {
		return nil, err
	}
	if hdr[0] != walFormatV1 {
		return nil, fmt.Errorf("%w: unknown record format 0x%02x", wal.ErrCorruptWAL, hdr[0])
	}
	rec := &walRecord{Kind: hdr[1]}
	switch rec.Kind {
	case recStmt:
		if rec.Stmt, err = r.str("statement"); err != nil {
			return nil, err
		}
	case recIngest:
		if rec.Stream, err = r.str("stream name"); err != nil {
			return nil, err
		}
		nb, err := r.bytes(2, "column count")
		if err != nil {
			return nil, err
		}
		ncols := int(binary.LittleEndian.Uint16(nb))
		if ncols > len(p)-r.off { // a column is ≥ 1 byte
			return nil, r.corrupt("columns")
		}
		if ncols > 0 {
			rec.Cols = make([]*vector.Vector, ncols)
		}
		for i := range rec.Cols {
			col, rest, err := vector.DecodeColumn(p[r.off:])
			if err != nil {
				return nil, fmt.Errorf("%w: column %d at offset %d: %w", wal.ErrCorruptWAL, i, r.off, err)
			}
			rec.Cols[i], r.off = col, len(p)-len(rest)
		}
	case recFrontier:
		if rec.Query, err = r.str("query name"); err != nil {
			return nil, err
		}
		cb, err := r.bytes(8, "frontier count")
		if err != nil {
			return nil, err
		}
		rec.Count = int64(binary.LittleEndian.Uint64(cb))
	default:
		return nil, fmt.Errorf("%w: unknown record kind 0x%02x", wal.ErrCorruptWAL, rec.Kind)
	}
	if r.off != len(p) {
		return nil, fmt.Errorf("%w: %d trailing bytes after record", wal.ErrCorruptWAL, len(p)-r.off)
	}
	return rec, nil
}
