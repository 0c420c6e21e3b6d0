//go:build !unix

package wal

import "time"

// processCPU has no getrusage to read here, so BenchmarkRecovery
// reports wall time only.
func processCPU() (time.Duration, bool) { return 0, false }
