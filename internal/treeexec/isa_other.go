//go:build !amd64

package treeexec

// DetectedISA reports the host's vector instruction set; this package
// probes for one only on amd64, so elsewhere it is "".
func DetectedISA() string { return "" }
