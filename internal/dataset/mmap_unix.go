//go:build unix

package dataset

import (
	"os"
	"syscall"
)

// mmapFile maps the whole file read-only. The mapping is shared and
// demand-paged, so opening a shard far larger than RAM is cheap and the
// kernel evicts cold pages under pressure.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(data []byte) {
	_ = syscall.Munmap(data)
}

// fileSize returns the file's current size with one fstat into a stack
// buffer, so the mapped read path stays allocation-free.
func fileSize(f *os.File) (int64, error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f.Fd()), &st); err != nil {
		return 0, os.NewSyscallError("fstat", err)
	}
	return st.Size, nil
}
