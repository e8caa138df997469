package engine

import "io"

// writeTableV1 writes the legacy version-free SDB1 layout, which
// ReadTable still accepts and only tests still write.
func writeTableV1(w io.Writer, t *Table) error { return writeTable(w, t, false) }

// DigestColdCells digests every sealed cell of t from an empty memo on
// up to workers goroutines and returns how many it digested.
func DigestColdCells(t *Table, workers int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.chunkMu.Lock()
	t.chunkHashes, t.runDigests = nil, nil
	t.chunkMu.Unlock()
	return t.digestCellsLocked(0, t.rows/ChunkRows, workers)
}
