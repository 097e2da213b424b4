package vstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The write-ahead log is redo-only with full-page after-images: every
// commit appends one pageImage record per page the transaction touched,
// followed by a commit record, then fsyncs. Recovery replays the images of
// committed transactions (in log order) into the data file; full images
// make replay idempotent. A checkpoint flushes all dirty pages, fsyncs the
// data file and truncates the log.
//
// Record wire format:
//
//	u32 payloadLen | u32 crc32(payload) | payload
//
// payload:
//
//	u64 LSN | u64 txnID | u8 kind | kind-specific body
//
// pageImage body: u32 pageID | PageSize bytes.
const (
	walKindPageImage uint8 = iota + 1
	walKindCommit
)

const walHeaderLen = 8 // payloadLen + crc

type walRecord struct {
	lsn    uint64
	txnID  uint64
	kind   uint8
	pageID PageID
	image  []byte
}

// wal is the append-only log writer.
type wal struct {
	f       File
	nextLSN uint64
	size    int64
}

func openWAL(fs VFS, path string) (*wal, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("vstore: open wal: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		_ = f.Close() //cbvrvet:ignore errvet open already failed
		return nil, fmt.Errorf("vstore: stat wal: %w", err)
	}
	if size == 0 {
		// Make the directory entry of a freshly created log durable: a
		// committed transaction is only as durable as the WAL file's
		// existence.
		if err := fs.SyncDir(path); err != nil {
			_ = f.Close() //cbvrvet:ignore errvet open already failed
			return nil, err
		}
	}
	return &wal{f: f, nextLSN: 1, size: size}, nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// appendRecord writes one record at the current tail and returns its LSN.
func (w *wal) appendRecord(txnID uint64, kind uint8, pageID PageID, image []byte) (uint64, error) {
	if w.f == nil {
		// The file was abandoned mid-flight (SimulateCrash); fail like a
		// write to a closed descriptor would.
		return 0, fmt.Errorf("vstore: append wal record: %w", ErrClosed)
	}
	lsn := w.nextLSN
	w.nextLSN++
	bodyLen := 8 + 8 + 1
	if kind == walKindPageImage {
		bodyLen += 4 + len(image)
	}
	buf := make([]byte, walHeaderLen+bodyLen)
	payload := buf[walHeaderLen:]
	binary.BigEndian.PutUint64(payload[0:], lsn)
	binary.BigEndian.PutUint64(payload[8:], txnID)
	payload[16] = kind
	if kind == walKindPageImage {
		binary.BigEndian.PutUint32(payload[17:], uint32(pageID))
		copy(payload[21:], image)
	}
	binary.BigEndian.PutUint32(buf[0:], uint32(bodyLen))
	binary.BigEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return 0, fmt.Errorf("vstore: append wal record: %w", err)
	}
	w.size += int64(len(buf))
	return lsn, nil
}

// sync makes all appended records durable.
func (w *wal) sync() error {
	if w.f == nil {
		return fmt.Errorf("vstore: sync wal: %w", ErrClosed)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("vstore: sync wal: %w", err)
	}
	return nil
}

// truncate empties the log after a checkpoint.
func (w *wal) truncate() error {
	if w.f == nil {
		return fmt.Errorf("vstore: truncate wal: %w", ErrClosed)
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("vstore: truncate wal: %w", err)
	}
	w.size = 0
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("vstore: sync truncated wal: %w", err)
	}
	return nil
}

// readAll scans the log from the start, returning complete records up to
// the first torn/corrupt entry (which is discarded, as are any following
// bytes).
func (w *wal) readAll() ([]walRecord, error) {
	f := io.NewSectionReader(w.f, 0, w.size)
	var out []walRecord
	hdr := make([]byte, walHeaderLen)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return out, nil
			}
			return nil, fmt.Errorf("vstore: read wal header: %w", err)
		}
		bodyLen := binary.BigEndian.Uint32(hdr[0:])
		wantCRC := binary.BigEndian.Uint32(hdr[4:])
		if bodyLen < 17 || bodyLen > 2*PageSize {
			return out, nil // torn tail
		}
		payload := make([]byte, bodyLen)
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return out, nil
			}
			return nil, fmt.Errorf("vstore: read wal payload: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return out, nil // torn tail
		}
		rec := walRecord{
			lsn:   binary.BigEndian.Uint64(payload[0:]),
			txnID: binary.BigEndian.Uint64(payload[8:]),
			kind:  payload[16],
		}
		if rec.kind == walKindPageImage {
			if len(payload) < 21+PageSize {
				return out, nil
			}
			rec.pageID = PageID(binary.BigEndian.Uint32(payload[17:]))
			rec.image = payload[21 : 21+PageSize]
		}
		out = append(out, rec)
	}
}
