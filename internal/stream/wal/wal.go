// Package wal is the durability layer under the streaming subsystem: an
// append-only, CRC32-framed, length-prefixed write-ahead log of ingested
// batches, periodic compacted snapshots of the whole store (the stable
// binary dataset encoding plus the store version), and a recovery path
// that replays the log on top of the latest snapshot to a bit-identical
// store — same version, same dims, same answers in the same global
// order.
//
// # File formats
//
// <base>.wal — the log:
//
//	8-byte magic "TIWAL\x01\r\n"
//	records, each: uint32 LE payload length
//	               uint32 LE CRC-32 (IEEE) of the payload
//	               payload
//	payload:       uint64 LE store version after applying this batch
//	               uvarint batch NumTasks, uvarint batch NumWorkers
//	               uvarint answer count, per answer:
//	                 uvarint task, uvarint worker, 8-byte LE value bits
//	               uvarint truth count, per truth (ascending task id):
//	                 uvarint task, 8-byte LE value bits
//
// <base>.snap — the compacted snapshot, written atomically
// (tmp + rename):
//
//	8-byte magic "TISNP\x01\r\n"
//	uint64 LE store version
//	uint32 LE CRC-32 (IEEE) of the dataset encoding
//	dataset.MarshalBinary bytes
//
// # Recovery contract
//
// Every record carries the store version its batch produced, so replay
// is idempotent: records at or below the snapshot's version are skipped,
// and the next record must be exactly snapshot version+1 — a gap means
// the log does not belong to the snapshot (e.g. a mismatched backup
// restore), which Open refuses with a hard error rather than destroying
// intact records. A truncated or corrupted tail stops replay at the
// last intact record — recovery returns the consistent prefix plus a
// *CorruptError describing the damage, never a torn store. Open
// truncates the damaged tail before appending so the log stays readable
// (or rewrites the log wholesale when the magic itself is damaged).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"truthinference/internal/dataset"
	"truthinference/internal/stream"
)

const (
	logMagic  = "TIWAL\x01\r\n"
	snapMagic = "TISNP\x01\r\n"

	// maxRecordLen bounds one record's payload (64 MiB ≈ 2.7M answers);
	// a larger declared length is treated as corruption, so a damaged
	// length field cannot drive a huge allocation.
	maxRecordLen = 1 << 26

	frameLen = 8 // uint32 length + uint32 crc
)

// CorruptError reports damaged log or snapshot bytes: where the damage
// starts and what was wrong. Replay and recovery stop at the last intact
// record; the state built from the prefix before Offset is consistent.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s corrupt at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Log is an open write-ahead log. Append writes one framed record per
// committed batch (buffered only by the OS — a process crash loses
// nothing already Appended); Sync makes the log durable against machine
// crashes too.
type Log struct {
	f    *os.File
	path string
}

// Create truncates (or creates) the log at path and writes the magic.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(logMagic)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, path: path}, nil
}

// openAppend opens an existing log for appending at offset off (the end
// of its intact prefix), truncating anything after it.
func openAppend(path string, off int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, path: path}, nil
}

// Append writes one framed record: the batch plus the store version it
// produced. The frame and payload go out in a single write, so a crash
// mid-append leaves at most one torn record at the tail — exactly what
// replay tolerates.
func (l *Log) Append(version uint64, b stream.Batch) error {
	payload := appendBatch(make([]byte, 0, 16+len(b.Answers)*12+len(b.Truth)*10), version, b)
	if len(payload) > maxRecordLen {
		// Replay would reject the record as corrupt, silently destroying
		// it and everything after — refuse up front instead. Unreachable
		// through Store.Ingest, whose MaxBatch cap keeps every admissible
		// batch well under this limit.
		return fmt.Errorf("wal: record payload %d bytes exceeds the %d cap", len(payload), maxRecordLen)
	}
	rec := make([]byte, frameLen, frameLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	_, err := l.f.Write(rec)
	return err
}

// Sync flushes the log to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close syncs and closes the log file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// appendBatch encodes one record payload: the version prefix plus the
// shared batch-payload encoding from the stream package (the same
// encoding the batched HTTP ingest endpoint frames on the wire).
func appendBatch(buf []byte, version uint64, b stream.Batch) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, version)
	return stream.AppendBatchPayload(buf, b)
}

// decodeBatch decodes one record payload. It enforces wire shape only;
// semantic validation (label ranges, finite numerics) happens in
// Store.Ingest during replay.
func decodeBatch(payload []byte) (version uint64, b stream.Batch, err error) {
	if len(payload) < 8 {
		return 0, stream.Batch{}, errors.New("payload shorter than version field")
	}
	version = binary.LittleEndian.Uint64(payload[:8])
	b, err = stream.DecodeBatchPayload(payload[8:])
	if err != nil {
		return 0, stream.Batch{}, err
	}
	return version, b, nil
}

// Replay streams the log at path and calls fn for every intact record
// in order, holding O(maxRecordLen) memory regardless of log size (a
// crashed daemon running without automatic compaction can leave an
// arbitrarily long log behind). It returns the byte offset of the end
// of the intact prefix and the number of records delivered. A truncated
// or corrupted tail stops the scan and is reported as a *CorruptError;
// an error returned by fn stops the scan and is returned as-is (with
// the offset still pointing before the record that fn rejected).
func Replay(path string, fn func(version uint64, b stream.Batch) error) (goodOffset int64, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)

	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != logMagic {
		return 0, 0, &CorruptError{Path: path, Offset: 0, Reason: "bad log magic"}
	}
	off := int64(len(logMagic))
	hdr := make([]byte, frameLen)
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			if err == io.EOF {
				return off, records, nil
			}
			return off, records, &CorruptError{Path: path, Offset: off, Reason: "torn frame header"}
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if plen > maxRecordLen {
			return off, records, &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf("record length %d exceeds cap", plen)}
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, records, &CorruptError{Path: path, Offset: off, Reason: "torn record payload"}
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return off, records, &CorruptError{Path: path, Offset: off, Reason: "payload CRC mismatch"}
		}
		version, b, derr := decodeBatch(payload)
		if derr != nil {
			return off, records, &CorruptError{Path: path, Offset: off, Reason: derr.Error()}
		}
		if err := fn(version, b); err != nil {
			return off, records, err
		}
		off += frameLen + int64(plen)
		records++
	}
}

// WriteSnapshot atomically writes a compacted snapshot of d at the given
// store version: the bytes go to a temp file, are fsynced, and replace
// path in one rename, so a crash mid-write never damages an existing
// snapshot.
func WriteSnapshot(path string, d *dataset.Dataset, version uint64) error {
	enc, err := d.MarshalBinary()
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(snapMagic)+12+len(enc))
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(enc))
	buf = append(buf, enc...)

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so the renames and creates inside it
// survive a crash. A filesystem that cannot sync a directory (EINVAL,
// ENOTSUP) counts as success: there the rename is as durable as it can
// be made. Every other error is returned.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return unsupportedOK(err)
}

func unsupportedOK(err error) error {
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}

// ReadSnapshot loads a snapshot written by WriteSnapshot, verifying the
// magic and the dataset CRC before decoding.
func ReadSnapshot(path string) (*dataset.Dataset, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	hdr := len(snapMagic) + 12
	if len(data) < hdr || string(data[:len(snapMagic)]) != snapMagic {
		return nil, 0, &CorruptError{Path: path, Offset: 0, Reason: "bad snapshot magic"}
	}
	version := binary.LittleEndian.Uint64(data[len(snapMagic):])
	crc := binary.LittleEndian.Uint32(data[len(snapMagic)+8:])
	enc := data[hdr:]
	if crc32.ChecksumIEEE(enc) != crc {
		return nil, 0, &CorruptError{Path: path, Offset: int64(hdr), Reason: "dataset CRC mismatch"}
	}
	d, err := dataset.UnmarshalDataset(enc)
	if err != nil {
		return nil, 0, &CorruptError{Path: path, Offset: int64(hdr), Reason: err.Error()}
	}
	return d, version, nil
}
