package engine

import (
	"encoding/binary"
	"fmt"
)

// Decoder is the one reader of bytes that may be hostile: frames, table
// snapshots and the WAL's records. The first malformation sticks and
// every later read yields a zero value, so a caller checks once (Err,
// Close). Count checks a length against the bytes left before the
// caller allocates for it, so what a decoder makes its caller allocate
// is bounded by the input's length.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err reports the first malformation.
func (d *Decoder) Err() error { return d.err }

// Close reports the first malformation, or trailing bytes.
func (d *Decoder) Close() error {
	if d.err == nil && len(d.buf) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return d.err
}

// Failf records a malformation unless one is recorded already; every
// later read yields a zero value.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.buf = nil
}

// Left is the number of bytes not yet read.
func (d *Decoder) Left() int { return len(d.buf) }

// Next consumes n raw bytes (nil when fewer are left).
func (d *Decoder) Next(n int) []byte {
	if n < 0 || n > len(d.buf) {
		d.Failf("truncated: want %d bytes, %d left", n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// Byte consumes one byte.
func (d *Decoder) Byte() byte {
	if b := d.Next(1); b != nil {
		return b[0]
	}
	return 0
}

// Uvarint reads an unsigned integer in its shortest encoding.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) {
		d.Failf("malformed varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zig-zag signed integer.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// Count reads the length of a list of elements of at least minBytes
// bytes each; one the bytes left cannot hold is a malformation.
func (d *Decoder) Count(minBytes int) int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)/minBytes) {
		d.Failf("count %d exceeds the %d bytes left", n, len(d.buf))
		return 0
	}
	return int(n)
}

// U64 reads 8 little-endian bytes.
func (d *Decoder) U64() uint64 {
	if b := d.Next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Text reads a uvarint length and that many bytes.
func (d *Decoder) Text() string { return string(d.Next(d.Count(1))) }
