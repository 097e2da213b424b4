package vstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// ColType enumerates column types.
type ColType uint8

// Column types. Blob columns are stored out-of-row as page chains and
// surface as BlobRef values; use DB.ReadBlob to fetch their bytes.
const (
	TypeInt64 ColType = iota + 1
	TypeFloat64
	TypeText
	TypeBytes
	TypeBlob
	TypeTime
)

func (t ColType) String() string {
	switch t {
	case TypeInt64:
		return "INT64"
	case TypeFloat64:
		return "FLOAT64"
	case TypeText:
		return "TEXT"
	case TypeBytes:
		return "BYTES"
	case TypeBlob:
		return "BLOB"
	case TypeTime:
		return "TIME"
	default:
		return fmt.Sprintf("coltype(%d)", uint8(t))
	}
}

// Value is a dynamically typed cell. The zero Value is an untyped NULL.
type Value struct {
	Type  ColType
	Null  bool
	Int   int64
	Float float64
	Str   string
	Bytes []byte
	Blob  BlobRef
	Time  time.Time

	// overflowText marks a TEXT value stored out-of-row (TOAST-style):
	// Blob carries the chain reference and Str is empty until a read
	// resolves it. Set internally when a text value exceeds
	// textOverflowThreshold.
	overflowText bool
}

// textOverflowThreshold is the largest TEXT payload kept inline in the
// row record. Longer strings (the paper's VARCHAR2(1500) feature columns
// routinely exceed a quarter page) move to overflow blob chains so rows
// always fit a page.
const textOverflowThreshold = 256

// Int64 builds an INT64 value.
func Int64(v int64) Value { return Value{Type: TypeInt64, Int: v} }

// Float64V builds a FLOAT64 value.
func Float64V(v float64) Value { return Value{Type: TypeFloat64, Float: v} }

// Text builds a TEXT value.
func Text(s string) Value { return Value{Type: TypeText, Str: s} }

// BytesV builds a BYTES value.
func BytesV(b []byte) Value { return Value{Type: TypeBytes, Bytes: b} }

// Blob builds a BLOB value from raw bytes to be written out-of-row at
// insert/update time.
func Blob(b []byte) Value { return Value{Type: TypeBlob, Bytes: b} }

// BlobRefV builds a BLOB value from an already-written chain reference
// (e.g. one produced by a BlobWriter); insert and update store the
// reference as-is without copying or rewriting the chain.
func BlobRefV(ref BlobRef) Value { return Value{Type: TypeBlob, Blob: ref} }

// TimeV builds a TIME value.
func TimeV(t time.Time) Value { return Value{Type: TypeTime, Time: t} }

// NullV builds a typed NULL.
func NullV(t ColType) Value { return Value{Type: t, Null: true} }

// rowCodec encodes rows as: null bitmap, then per non-null column a
// type-specific payload. Column count and types come from the schema.
func encodeRow(schema *Schema, row []Value) ([]byte, error) {
	if len(row) != len(schema.Cols) {
		return nil, fmt.Errorf("vstore: row has %d values, schema %q wants %d", len(row), schema.Name, len(schema.Cols))
	}
	nb := (len(row) + 7) / 8
	buf := make([]byte, nb, nb+len(row)*9)
	var tmp [binary.MaxVarintLen64]byte
	for i, v := range row {
		col := schema.Cols[i]
		if v.Null {
			if col.NotNull {
				return nil, fmt.Errorf("vstore: column %s.%s is NOT NULL", schema.Name, col.Name)
			}
			buf[i/8] |= 1 << (i % 8)
			continue
		}
		if v.Type != col.Type {
			return nil, fmt.Errorf("vstore: column %s.%s wants %v, got %v", schema.Name, col.Name, col.Type, v.Type)
		}
		switch col.Type {
		case TypeInt64:
			n := binary.PutVarint(tmp[:], v.Int)
			buf = append(buf, tmp[:n]...)
		case TypeFloat64:
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v.Float))
			buf = append(buf, b[:]...)
		case TypeText:
			if v.overflowText {
				buf = append(buf, 1)
				var b [4]byte
				binary.BigEndian.PutUint32(b[:], uint32(v.Blob.First))
				buf = append(buf, b[:]...)
				n := binary.PutUvarint(tmp[:], uint64(v.Blob.Len))
				buf = append(buf, tmp[:n]...)
				break
			}
			buf = append(buf, 0)
			n := binary.PutUvarint(tmp[:], uint64(len(v.Str)))
			buf = append(buf, tmp[:n]...)
			buf = append(buf, v.Str...)
		case TypeBytes:
			n := binary.PutUvarint(tmp[:], uint64(len(v.Bytes)))
			buf = append(buf, tmp[:n]...)
			buf = append(buf, v.Bytes...)
		case TypeBlob:
			// By encode time the blob has been written out-of-row and the
			// value carries its reference.
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(v.Blob.First))
			buf = append(buf, b[:]...)
			n := binary.PutUvarint(tmp[:], uint64(v.Blob.Len))
			buf = append(buf, tmp[:n]...)
		case TypeTime:
			n := binary.PutVarint(tmp[:], v.Time.UnixNano())
			buf = append(buf, tmp[:n]...)
		default:
			return nil, fmt.Errorf("vstore: column %s.%s has unknown type %v", schema.Name, col.Name, col.Type)
		}
	}
	return buf, nil
}

func decodeRow(schema *Schema, rec []byte) ([]Value, error) {
	pos, err := rowStart(schema, rec)
	if err != nil {
		return nil, err
	}
	row := make([]Value, len(schema.Cols))
	for i := range row {
		if pos, err = decodeColumn(schema, rec, pos, i, &row[i]); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// decodeUpTo decodes column c of a record, stepping over the columns
// before it without copying their strings or bytes.
func decodeUpTo(schema *Schema, rec []byte, c int) (Value, error) {
	pos, err := rowStart(schema, rec)
	if err != nil {
		return Value{}, err
	}
	var v Value
	for i := 0; i < c; i++ {
		if pos, err = decodeColumn(schema, rec, pos, i, nil); err != nil {
			return Value{}, err
		}
	}
	if _, err = decodeColumn(schema, rec, pos, c, &v); err != nil {
		return Value{}, err
	}
	return v, nil
}

// rowStart checks a record's null bitmap and returns the offset of its
// first column payload.
func rowStart(schema *Schema, rec []byte) (int, error) {
	nb := (len(schema.Cols) + 7) / 8
	if len(rec) < nb {
		return 0, fmt.Errorf("vstore: record too short for %q null bitmap", schema.Name)
	}
	return nb, nil
}

// decodeColumn decodes column i, whose payload starts at pos, into *dst
// and returns the offset of the next payload. With dst nil the payload is
// only stepped over: no TEXT or BYTES payload is copied.
func decodeColumn(schema *Schema, rec []byte, pos, i int, dst *Value) (int, error) {
	col := &schema.Cols[i]
	if rec[i/8]&(1<<(i%8)) != 0 {
		if col.NotNull {
			return 0, fmt.Errorf("vstore: corrupt record: NULL in NOT NULL column %s.%s", schema.Name, col.Name)
		}
		if dst != nil {
			*dst = NullV(col.Type)
		}
		return pos, nil
	}
	switch col.Type {
	case TypeInt64:
		v, n := binary.Varint(rec[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("vstore: bad varint in %s.%s", schema.Name, col.Name)
		}
		if dst != nil {
			*dst = Int64(v)
		}
		return pos + n, nil
	case TypeFloat64:
		if pos+8 > len(rec) {
			return 0, fmt.Errorf("vstore: truncated float in %s.%s", schema.Name, col.Name)
		}
		if dst != nil {
			*dst = Float64V(math.Float64frombits(binary.BigEndian.Uint64(rec[pos:])))
		}
		return pos + 8, nil
	case TypeText:
		if pos >= len(rec) {
			return 0, fmt.Errorf("vstore: truncated text flag in %s.%s", schema.Name, col.Name)
		}
		flag := rec[pos]
		pos++
		if flag == 1 {
			if pos+4 > len(rec) {
				return 0, fmt.Errorf("vstore: truncated text overflow ref in %s.%s", schema.Name, col.Name)
			}
			first := PageID(binary.BigEndian.Uint32(rec[pos:]))
			pos += 4
			l, n := binary.Uvarint(rec[pos:])
			if n <= 0 || l > math.MaxInt64 {
				return 0, fmt.Errorf("vstore: bad text overflow length in %s.%s", schema.Name, col.Name)
			}
			if dst != nil {
				*dst = Value{Type: TypeText, Blob: BlobRef{First: first, Len: int64(l)}, overflowText: true}
			}
			return pos + n, nil
		}
		l, n := binary.Uvarint(rec[pos:])
		// Compare in uint64 space: a corrupt huge length must not wrap
		// negative through int conversion and slip past the check.
		if n <= 0 || l > uint64(len(rec)-pos-n) {
			return 0, fmt.Errorf("vstore: truncated string in %s.%s", schema.Name, col.Name)
		}
		pos += n
		end := pos + int(l)
		if dst != nil {
			*dst = Text(string(rec[pos:end]))
		}
		return end, nil
	case TypeBytes:
		l, n := binary.Uvarint(rec[pos:])
		if n <= 0 || l > uint64(len(rec)-pos-n) {
			return 0, fmt.Errorf("vstore: truncated string in %s.%s", schema.Name, col.Name)
		}
		pos += n
		end := pos + int(l)
		if dst != nil {
			b := make([]byte, l)
			copy(b, rec[pos:end])
			if dst != nil {
				*dst = BytesV(b)
			}
		}
		return end, nil
	case TypeBlob:
		if pos+4 > len(rec) {
			return 0, fmt.Errorf("vstore: truncated blob ref in %s.%s", schema.Name, col.Name)
		}
		first := PageID(binary.BigEndian.Uint32(rec[pos:]))
		pos += 4
		l, n := binary.Uvarint(rec[pos:])
		if n <= 0 || l > math.MaxInt64 {
			return 0, fmt.Errorf("vstore: bad blob length in %s.%s", schema.Name, col.Name)
		}
		if dst != nil {
			*dst = Value{Type: TypeBlob, Blob: BlobRef{First: first, Len: int64(l)}}
		}
		return pos + n, nil
	case TypeTime:
		v, n := binary.Varint(rec[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("vstore: bad time in %s.%s", schema.Name, col.Name)
		}
		if dst != nil {
			*dst = TimeV(time.Unix(0, v).UTC())
		}
		return pos + n, nil
	default:
		return 0, fmt.Errorf("vstore: column %s.%s has unknown type %v", schema.Name, col.Name, col.Type)
	}
}
