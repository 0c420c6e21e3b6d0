package wal

// cpuHasCRC32C reports whether the CPU has SSE4.2, whose CRC32
// instruction computes CRC32C: CPUID leaf 1, bit 20 of ECX.
func cpuHasCRC32C() bool

// recordRunHW is recordRun with the CRC32 instruction: two per frame,
// with the frame's other checks in the same loop.
//
//go:noescape
func recordRunHW(b []byte) int
