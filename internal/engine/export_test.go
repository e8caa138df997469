package engine

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
