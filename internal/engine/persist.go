package engine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary table snapshot format. Columnar layout mirrors the in-memory
// representation, so load cost is one allocation per column plus a
// sequential read — the shape an embedded analytical store wants.
//
//	magic   "SDB1" (4 bytes)
//	name    string
//	rows    uvarint
//	version uvarint ("SDB2" only: the table's mutation version)
//	ncols   uvarint
//	per column:
//	    name     string
//	    type     byte
//	    nulls    uvarint count, then that many uvarint positions
//	    payload  type-specific (see writeColumn)
//	crc32   IEEE checksum of everything before it (4 bytes, big endian)
//
// Strings are uvarint length + bytes. All integers are uvarints or
// fixed little-endian 8-byte values inside payloads.
//
// Two magics share the format. "SDB1" is the version-free layout of
// older snapshots, still read but no longer written. "SDB2" adds the
// mutation version, which durable snapshots need: a restored table
// must resume the version sequence so WAL replay (keyed by pre-append
// version) and fingerprint continuity both work across restarts.
// ReadTable accepts either magic.

const (
	tableMagic   = "SDB1"
	tableMagicV2 = "SDB2"
)

// WriteTableSnapshot serializes the table in the "SDB2" layout, which
// additionally persists the table's mutation version so a restore
// resumes the version sequence instead of restarting it at zero.
func WriteTableSnapshot(w io.Writer, t *Table) error {
	return writeTable(w, t, true)
}

// writeTable serializes the table as SDB2, or as SDB1 without the
// version (the tests' way to write legacy snapshots).
func writeTable(w io.Writer, t *Table, withVersion bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()

	// Write/read symmetry: ReadTable rejects ncols == 0 (a table that
	// can hold no values is corruption, not data), so refusing to emit
	// one here keeps every written snapshot readable.
	if len(t.cols) == 0 {
		return fmt.Errorf("engine: cannot snapshot zero-column table %q", t.name)
	}

	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	magic := tableMagic
	if withVersion {
		magic = tableMagicV2
	}
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("engine: writing snapshot: %w", err)
	}
	writeString(bw, t.name)
	writeUvarint(bw, uint64(t.rows))
	if withVersion {
		writeUvarint(bw, t.version.Load())
	}
	writeUvarint(bw, uint64(len(t.cols)))
	for _, col := range t.cols {
		if err := writeColumn(bw, col); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("engine: writing snapshot: %w", err)
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("engine: writing snapshot checksum: %w", err)
	}
	return nil
}

// ReadTable deserializes a table written by WriteTableSnapshot (or an
// older SDB1 snapshot), verifying the checksum. The whole snapshot is
// buffered first so the checksum can be validated before any parsing
// work trusts the payload.
func ReadTable(r io.Reader) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("engine: reading snapshot: %w", err)
	}
	if len(data) < len(tableMagic)+4 {
		return nil, fmt.Errorf("engine: snapshot truncated (%d bytes)", len(data))
	}
	payload, sum := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(sum) {
		return nil, fmt.Errorf("engine: snapshot checksum mismatch (corrupt file?)")
	}
	magic := string(payload[:len(tableMagic)])
	if magic != tableMagic && magic != tableMagicV2 {
		return nil, fmt.Errorf("engine: not a table snapshot (magic %q)", magic)
	}
	d := NewDecoder(payload[len(tableMagic):])
	name, rows := snapshotText(d), d.Uvarint()
	// SDB2 persists the mutation version; SDB1 predates it, so a legacy
	// snapshot restores at version 0 (its pre-durability behavior).
	var version uint64
	if magic == tableMagicV2 {
		version = d.Uvarint()
	}
	ncols := d.Uvarint()
	switch {
	case d.Err() != nil:
		return nil, fmt.Errorf("engine: snapshot: %w", d.Err())
	case ncols == 0 || ncols > 1<<20:
		return nil, fmt.Errorf("engine: snapshot has implausible column count %d", ncols)
	// Plausibility before allocation: every column stores at least one
	// byte per row (8 for numerics, >= 1 per dictionary code), so a
	// declared row or column count the payload cannot possibly back is
	// corruption — reject it instead of allocating attacker-controlled
	// amounts of memory.
	case rows > uint64(len(payload)) || ncols > uint64(len(payload)):
		return nil, fmt.Errorf("engine: snapshot declares %d rows of %d columns in a %d-byte payload", rows, ncols, len(payload))
	}
	t := &Table{name: name, id: tableIDs.Add(1), rows: int(rows), byName: make(map[string]int, ncols)}
	t.version.Store(version)
	for i := range int(ncols) {
		col := readColumn(d, int(rows))
		if d.Err() != nil {
			return nil, fmt.Errorf("engine: snapshot: %w", d.Err())
		}
		if _, dup := t.byName[col.Name()]; dup {
			return nil, fmt.Errorf("engine: snapshot has duplicate column %q", col.Name())
		}
		t.byName[col.Name()] = i
		t.cols = append(t.cols, col)
	}
	return t, nil
}

// maxSnapshotText bounds a snapshot's strings.
const maxSnapshotText = 1 << 24

// snapshotText reads a string of at most maxSnapshotText bytes.
func snapshotText(d *Decoder) string {
	s := d.Text()
	if len(s) > maxSnapshotText {
		d.Failf("string of %d bytes is implausible", len(s))
		return ""
	}
	return s
}

func writeColumn(w *bufio.Writer, col Column) error {
	writeString(w, col.Name())
	_ = w.WriteByte(byte(col.Type()))
	// Null positions.
	var positions []int
	for i := 0; i < col.Len(); i++ {
		if col.IsNull(i) {
			positions = append(positions, i)
		}
	}
	writeUvarint(w, uint64(len(positions)))
	for _, p := range positions {
		writeUvarint(w, uint64(p))
	}
	switch c := col.(type) {
	case *IntColumn:
		for _, v := range c.vals {
			writeU64(w, uint64(v))
		}
	case *FloatColumn:
		for _, v := range c.vals {
			writeU64(w, math.Float64bits(v))
		}
	case *TimeColumn:
		for _, v := range c.vals {
			writeU64(w, uint64(v))
		}
	case *StringColumn:
		writeUvarint(w, uint64(len(c.dict)))
		for _, s := range c.dict {
			writeString(w, s)
		}
		for _, code := range c.codes {
			writeUvarint(w, uint64(uint32(code)))
		}
	default:
		return fmt.Errorf("engine: cannot snapshot column kind %T", col)
	}
	return nil
}

// readColumn decodes one column of rows rows (nil after a
// malformation, which d records).
func readColumn(d *Decoder, rows int) Column {
	name := snapshotText(d)
	typ := Type(d.Byte())
	nNulls := d.Count(1)
	if nNulls > rows {
		d.Failf("column %q has %d nulls for %d rows", name, nNulls, rows)
	}
	var nulls nullBitmap
	for range nNulls {
		if p := d.Uvarint(); p < uint64(rows) {
			nulls.set(int(p))
		} else {
			d.Failf("column %q null position %d out of range", name, p)
		}
	}
	if d.Err() != nil {
		return nil
	}
	switch typ {
	case TypeInt, TypeTime, TypeFloat:
		// One bounds check for the whole column, then fixed-width reads.
		b := d.Next(8 * rows)
		if b == nil {
			return nil
		}
		if typ == TypeFloat {
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
			return &FloatColumn{name: name, vals: vals, nulls: nulls}
		}
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		if typ == TypeInt {
			return &IntColumn{name: name, vals: vals, nulls: nulls}
		}
		return &TimeColumn{name: name, vals: vals, nulls: nulls}
	case TypeString:
		dictLen := d.Count(1)
		if dictLen > rows+1 {
			d.Failf("column %q dictionary larger than row count", name)
			return nil
		}
		col := NewStringColumn(name)
		for i := range dictLen {
			s := snapshotText(d)
			col.dict = append(col.dict, s)
			col.index[s] = int32(i)
		}
		col.codes = make([]int32, rows)
		for i := range col.codes {
			code := int32(uint32(d.Uvarint()))
			if code >= int32(dictLen) && code != -1 {
				d.Failf("column %q code %d out of dictionary range", name, code)
				return nil
			}
			col.codes[i] = code
		}
		col.nulls = nulls
		return col
	default:
		d.Failf("unknown column type %d", typ)
		return nil
	}
}

// --- primitive encoders ---
//
// The writers append into the bufio.Writer's free space
// (AvailableBuffer) so no per-value buffer escapes to the heap; a
// Decoder reads the in-memory payload ReadTable has already
// checksummed.

func writeUvarint(w *bufio.Writer, v uint64) {
	_, _ = w.Write(binary.AppendUvarint(w.AvailableBuffer(), v))
}

func writeU64(w *bufio.Writer, v uint64) {
	_, _ = w.Write(binary.LittleEndian.AppendUint64(w.AvailableBuffer(), v))
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	_, _ = w.WriteString(s)
}
