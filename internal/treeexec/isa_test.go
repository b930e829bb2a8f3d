package treeexec

import (
	"runtime"
	"testing"
)

// TestDetectedISA pins the probe's vocabulary: "avx2" or nothing, and
// nothing at all off amd64, where no probe runs.
func TestDetectedISA(t *testing.T) {
	switch isa := DetectedISA(); {
	case isa != "" && isa != "avx2":
		t.Errorf("DetectedISA() = %q, want \"avx2\" or \"\"", isa)
	case isa != "" && runtime.GOARCH != "amd64":
		t.Errorf("DetectedISA() = %q on %s, want \"\"", isa, runtime.GOARCH)
	}
}
