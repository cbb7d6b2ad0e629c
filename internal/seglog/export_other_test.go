//go:build !linux

package seglog

// setKernelCopy is a no-op off Linux, where every copy is buffered.
func setKernelCopy(bool) func() { return func() {} }
