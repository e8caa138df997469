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
	br := &snapReader{b: payload[len(tableMagic):]}
	magic := payload[:len(tableMagic)]
	if string(magic) != tableMagic && string(magic) != tableMagicV2 {
		return nil, fmt.Errorf("engine: not a table snapshot (magic %q)", magic)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	rows, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	// SDB2 persists the mutation version; SDB1 predates it, so a legacy
	// snapshot restores at version 0 (its pre-durability behavior).
	var version uint64
	if string(magic) == tableMagicV2 {
		if version, err = readUvarint(br); err != nil {
			return nil, err
		}
	}
	ncols, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if ncols == 0 || ncols > 1<<20 {
		return nil, fmt.Errorf("engine: snapshot has implausible column count %d", ncols)
	}
	// Plausibility before allocation: every column stores at least one
	// byte per row (8 for numerics, >= 1 per dictionary code), so a
	// declared row or column count the payload cannot possibly back is
	// corruption — reject it instead of allocating attacker-controlled
	// amounts of memory.
	if rows > uint64(len(payload)) {
		return nil, fmt.Errorf("engine: snapshot declares %d rows in a %d-byte payload", rows, len(payload))
	}
	if ncols > uint64(len(payload)) {
		return nil, fmt.Errorf("engine: snapshot declares %d columns in a %d-byte payload", ncols, len(payload))
	}
	t := &Table{name: name, id: tableIDs.Add(1), rows: int(rows), byName: make(map[string]int, ncols)}
	t.version.Store(version)
	for i := 0; i < int(ncols); i++ {
		col, err := readColumn(br, int(rows))
		if err != nil {
			return nil, err
		}
		if _, dup := t.byName[col.Name()]; dup {
			return nil, fmt.Errorf("engine: snapshot has duplicate column %q", col.Name())
		}
		t.byName[col.Name()] = i
		t.cols = append(t.cols, col)
	}
	return t, nil
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

func readColumn(r *snapReader, rows int) (Column, error) {
	name, err := readString(r)
	if err != nil {
		return nil, err
	}
	if len(r.b) == 0 {
		return nil, fmt.Errorf("engine: reading column type: %w", io.EOF)
	}
	tb := r.b[0]
	r.b = r.b[1:]
	typ := Type(tb)
	nNulls, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if int(nNulls) > rows {
		return nil, fmt.Errorf("engine: column %q has %d nulls for %d rows", name, nNulls, rows)
	}
	var nulls nullBitmap
	for i := 0; i < int(nNulls); i++ {
		p, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		if int(p) >= rows {
			return nil, fmt.Errorf("engine: column %q null position %d out of range", name, p)
		}
		nulls.set(int(p))
	}
	switch typ {
	case TypeInt, TypeTime:
		vals := make([]int64, rows)
		for i := range vals {
			u, err := readU64(r)
			if err != nil {
				return nil, err
			}
			vals[i] = int64(u)
		}
		if typ == TypeInt {
			return &IntColumn{name: name, vals: vals, nulls: nulls}, nil
		}
		return &TimeColumn{name: name, vals: vals, nulls: nulls}, nil
	case TypeFloat:
		vals := make([]float64, rows)
		for i := range vals {
			u, err := readU64(r)
			if err != nil {
				return nil, err
			}
			vals[i] = math.Float64frombits(u)
		}
		return &FloatColumn{name: name, vals: vals, nulls: nulls}, nil
	case TypeString:
		dictLen, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		if dictLen > uint64(rows)+1 {
			return nil, fmt.Errorf("engine: column %q dictionary larger than row count", name)
		}
		col := NewStringColumn(name)
		for i := 0; i < int(dictLen); i++ {
			s, err := readString(r)
			if err != nil {
				return nil, err
			}
			col.dict = append(col.dict, s)
			col.index[s] = int32(i)
		}
		col.codes = make([]int32, rows)
		for i := range col.codes {
			u, err := readUvarint(r)
			if err != nil {
				return nil, err
			}
			code := int32(uint32(u))
			if code >= int32(dictLen) && code != -1 {
				return nil, fmt.Errorf("engine: column %q code %d out of dictionary range", name, code)
			}
			col.codes[i] = code
		}
		col.nulls = nulls
		return col, nil
	default:
		return nil, fmt.Errorf("engine: unknown column type %d in snapshot", tb)
	}
}

// --- primitive encoders ---
//
// The writers append into the bufio.Writer's free space
// (AvailableBuffer) so no per-value buffer escapes to the heap; the
// reader decodes the in-memory payload ReadTable has already
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

// snapReader consumes a snapshot payload from the front of b.
type snapReader struct {
	b []byte
}

func readUvarint(r *snapReader) (uint64, error) {
	v, n := binary.Uvarint(r.b)
	switch {
	case n > 0:
		r.b = r.b[n:]
		return v, nil
	case n < 0:
		return 0, fmt.Errorf("engine: reading snapshot varint: varint overflows a 64-bit integer")
	case len(r.b) == 0:
		return 0, fmt.Errorf("engine: reading snapshot varint: %w", io.EOF)
	default:
		return 0, fmt.Errorf("engine: reading snapshot varint: %w", io.ErrUnexpectedEOF)
	}
}

func readU64(r *snapReader) (uint64, error) {
	if len(r.b) < 8 {
		return 0, fmt.Errorf("engine: reading snapshot value: %w", io.ErrUnexpectedEOF)
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func readString(r *snapReader) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("engine: snapshot string of %d bytes is implausible", n)
	}
	if uint64(len(r.b)) < n {
		return "", fmt.Errorf("engine: reading snapshot string: %w", io.ErrUnexpectedEOF)
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}
