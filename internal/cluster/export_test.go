package cluster

import (
	"context"
	"errors"
)

// IsQueryFault reports whether a worker call's error is typed as the
// request's own fault rather than the worker's.
func IsQueryFault(err error) bool {
	var qf *queryFaultError
	return errors.As(err, &qf)
}

// Ingest is /api/ingest's coordinator path without HTTP: rows parsed
// against the coordinator's table, then Append.
func (b *Backend) Ingest(ctx context.Context, table string, rows [][]any) (*IngestResponse, error) {
	typed, _, err := b.store.Parse(table, rows)
	if err != nil {
		return nil, err
	}
	resp, _, err := b.Append(ctx, table, typed)
	return resp, err
}

// RequestFrameHeader opens every request frame.
const RequestFrameHeader = frameHeader + "Q"
