package treeexec

// AVX2 detection, done once at init the same way golang.org/x/sys/cpu
// does it but without the dependency: CPUID for the AVX/AVX2 feature
// bits, XGETBV to confirm the OS actually saves the YMM register state
// on context switch (the CPUID bits alone do not promise the ISA is
// usable).

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveAVX = 1<<27 | 1<<28 // OSXSAVE (XGETBV usable) + AVX
	if ecx1&osxsaveAVX != osxsaveAVX {
		return false
	}
	if xlo, _ := xgetbv(); xlo&0x6 != 0x6 { // OS saves XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// DetectedISA reports the host's vector instruction set: "avx2" on
// amd64 hosts whose CPU and OS support AVX2, "" otherwise. No walk
// depends on it; benchmark reports print it to describe the host.
func DetectedISA() string {
	if hasAVX2 {
		return "avx2"
	}
	return ""
}
