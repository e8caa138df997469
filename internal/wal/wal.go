// Package wal implements SeeDB's durable-storage layer: a write-ahead
// log of Table.Append batches plus periodic SDB2 snapshot checkpoints
// (engine.WriteTableSnapshot), giving crash-consistent recovery for
// the otherwise in-memory tables.
//
// The log is an append-only file of CRC-framed, length-prefixed
// records, one per ingest batch. Each record carries the table name,
// the table's PRE-append mutation version, and the typed rows. Replay
// applies a record only when the live table sits at exactly that
// version, so a snapshot that already covers the batch (or a replica
// that diverged) skips it instead of double-applying.
//
// Frame layout, little-endian:
//
//	length  uint32  payload byte count
//	crc32   uint32  IEEE checksum of the payload
//	payload
//
// Payload layout (uvarints, each in its shortest encoding; strings are
// uvarint length + bytes), read back through engine.Decoder — the one
// bounded reader the engine's snapshots and cluster frames use too:
//
//	table        string
//	prevVersion  uvarint
//	nrows        uvarint
//	ncols        uvarint
//	values       row-major; kind byte, null byte, then the payload
//	             (8-byte LE for INT/FLOAT/TIMESTAMP, string otherwise)
//
// A torn tail — a partial frame from a crash mid-write — fails the
// length or CRC check; the scanner stops at the last whole record and
// Open truncates the file there, so the log never accumulates garbage
// between valid records.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"seedb/internal/engine"
)

// Record is one durably logged append batch.
type Record struct {
	// Table names the target table.
	Table string
	// PrevVersion is the table's mutation version immediately before
	// the batch was applied; replay applies the record only to a table
	// sitting at exactly this version.
	PrevVersion uint64
	// Rows are the appended rows, in schema order.
	Rows [][]engine.Value
}

// frameHeaderSize is the fixed prefix of every record: payload length
// plus payload checksum.
const frameHeaderSize = 8

// maxRecordBytes rejects absurd declared lengths before allocation; a
// single ingest batch far beyond this is operator error, and anything
// larger in the length field of a frame is corruption.
const maxRecordBytes = 1 << 30

// encodeRecord renders a record's payload (frame header excluded).
func encodeRecord(rec *Record) ([]byte, error) {
	buf := make([]byte, 0, 64+16*len(rec.Rows))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Table)))
	buf = append(buf, rec.Table...)
	buf = binary.AppendUvarint(buf, rec.PrevVersion)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Rows)))
	ncols := 0
	if len(rec.Rows) > 0 {
		ncols = len(rec.Rows[0])
	}
	buf = binary.AppendUvarint(buf, uint64(ncols))
	for ri, row := range rec.Rows {
		if len(row) != ncols {
			return nil, fmt.Errorf("wal: record row %d has %d values, row 0 has %d", ri, len(row), ncols)
		}
		for _, v := range row {
			var err error
			if buf, err = appendValue(buf, v); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

func appendValue(buf []byte, v engine.Value) ([]byte, error) {
	switch v.Kind {
	case engine.TypeInt, engine.TypeFloat, engine.TypeString, engine.TypeTime:
	default:
		return nil, fmt.Errorf("wal: cannot log value of kind %d", v.Kind)
	}
	buf = append(buf, byte(v.Kind))
	if v.Null {
		return append(buf, 1), nil
	}
	buf = append(buf, 0)
	switch v.Kind {
	case engine.TypeInt, engine.TypeTime:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
	case engine.TypeFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case engine.TypeString:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	}
	return buf, nil
}

// decodeRecord parses one payload. It validates everything it
// allocates against the remaining byte count (engine.Decoder), so a
// corrupt length can never force an implausible allocation.
func decodeRecord(payload []byte) (*Record, error) {
	d := engine.NewDecoder(payload)
	rec := &Record{Table: d.Text(), PrevVersion: d.Uvarint()}
	nrows, ncols := d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// Every value costs at least two bytes (kind + null flag), so a
	// row/column product the payload cannot back is corruption.
	if nrows > 0 && ncols == 0 {
		return nil, fmt.Errorf("wal: record declares %d rows of zero columns", nrows)
	}
	if remaining := uint64(d.Left()); ncols != 0 && nrows > remaining/2/ncols {
		return nil, fmt.Errorf("wal: record declares %d×%d values in %d bytes", nrows, ncols, remaining)
	}
	rec.Rows = make([][]engine.Value, int(nrows))
	for ri := range rec.Rows {
		row := make([]engine.Value, int(ncols))
		for ci := range row {
			row[ci] = readValue(d)
		}
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		rec.Rows[ri] = row
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return rec, nil
}

func readValue(d *engine.Decoder) engine.Value {
	typ, null := engine.Type(d.Byte()), d.Byte()
	switch {
	case typ > engine.TypeTime:
		d.Failf("unknown value kind %d", typ)
	case null > 1:
		d.Failf("bad null flag %d", null)
	case null == 1:
		return engine.NullValue(typ)
	case typ == engine.TypeString:
		return engine.String(d.Text())
	case typ == engine.TypeFloat:
		return engine.Float(math.Float64frombits(d.U64()))
	default:
		return engine.Value{Kind: typ, I: int64(d.U64())}
	}
	return engine.Value{}
}

// scanRecords walks a log image and returns every whole, checksummed
// record plus the byte length of that valid prefix. A torn or corrupt
// tail simply ends the scan — by WAL discipline everything after the
// first bad frame is unreachable garbage.
func scanRecords(data []byte) (recs []*Record, validLen int64) {
	for d := engine.NewDecoder(data); d.Left() >= frameHeaderSize; {
		hdr := d.Next(frameHeaderSize)
		length, sum := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[4:])
		payload := d.Next(int(length))
		if length > maxRecordBytes || payload == nil || crc32.ChecksumIEEE(payload) != sum {
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			break
		}
		recs, validLen = append(recs, rec), int64(len(data)-d.Left())
	}
	return recs, validLen
}

// writeFrameHeader stamps the length+checksum prefix into frame[0:8].
func writeFrameHeader(frame, payload []byte) {
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// log is the on-disk append file. All methods are called under the
// Store mutex.
type log struct {
	f    *os.File
	size int64
	path string
}

// openLog opens (creating if absent) the log at path, scans it, and
// truncates any torn tail so appends resume cleanly after the last
// whole record. It returns the records of the valid prefix.
func openLog(path string) (*log, []*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: reading log: %w", err)
	}
	recs, validLen := scanRecords(data)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening log: %w", err)
	}
	if int64(len(data)) != validLen {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seeking log end: %w", err)
	}
	return &log{f: f, size: validLen, path: path}, recs, nil
}

// append frames and writes one record; durability requires a sync.
func (l *log) append(rec *Record) error {
	payload, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	writeFrameHeader(frame, payload)
	copy(frame[frameHeaderSize:], payload)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: appending record: %w", err)
	}
	l.size += int64(len(frame))
	return nil
}

func (l *log) sync() error { return l.f.Sync() }

// reset empties the log (compaction: every record is covered by the
// snapshots just written).
func (l *log) reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncating log: %w", err)
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		return fmt.Errorf("wal: rewinding log: %w", err)
	}
	l.size = 0
	return l.f.Sync()
}

func (l *log) close() error { return l.f.Close() }
