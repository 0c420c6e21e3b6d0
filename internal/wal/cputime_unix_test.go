//go:build unix

package wal

import (
	"syscall"
	"time"
)

// processCPU returns the user plus system CPU time this process has
// used so far.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
