package seglog

// setKernelCopy turns copy_file_range on or off and returns the undo.
func setKernelCopy(on bool) func() {
	old := copyFileRangeTrap
	if !on {
		copyFileRangeTrap = 0
	}
	return func() { copyFileRangeTrap = old }
}
