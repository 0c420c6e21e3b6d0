//go:build !amd64

package wal

// Outside amd64 the package has no kernel of its own: recordRun takes
// the portable path, whose hash/crc32 uses the platform's CRC32C
// instructions where it knows them.

func cpuHasCRC32C() bool { return false }

func recordRunHW(b []byte) int { return recordRunPortable(b) }
