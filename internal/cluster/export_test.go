package cluster

import "errors"

// IsQueryFault reports whether a worker call's error is typed as the
// request's own fault rather than the worker's.
func IsQueryFault(err error) bool {
	var qf *queryFaultError
	return errors.As(err, &qf)
}
