#include "go_asm.h"
#include "textflag.h"

// func cpuHasCRC32C() bool
TEXT ·cpuHasCRC32C(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $20, CX // SSE4.2
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func recordRunHW(b []byte) int
//
// Each frame is its length prefix (4 bytes), its CRC32C (4), its set
// (8) and its count (8), as frame.go lays out a v1 frame. The loop
// stops at the first frame whose length prefix is not
// recordPayloadSize, whose set is zero, whose count is not positive or
// whose CRC32C does not match, and returns how many frames came before
// it. The frames' CRCs do not depend on each other, so the CPU overlaps
// one frame's with the next's.
TEXT ·recordRunHW(SB), NOSPLIT, $0-32
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), CX
	XORL DX, DX

frame:
	CMPQ CX, $const_recordFrameSize
	JB done
	CMPL (SI), $const_recordPayloadSize
	JNE done
	MOVQ const_frameHeaderSize(SI), R8 // set
	TESTQ R8, R8
	JZ done
	MOVQ (const_frameHeaderSize+8)(SI), R9 // count
	TESTQ R9, R9
	JLE done
	MOVL $0xffffffff, AX
	CRC32Q R8, AX
	CRC32Q R9, AX
	NOTL AX
	CMPL AX, 4(SI) // the CRC32C, after the length prefix
	JNE done
	ADDQ $const_recordFrameSize, SI
	SUBQ $const_recordFrameSize, CX
	INCQ DX
	JMP frame

done:
	MOVQ DX, ret+24(FP)
	RET
