//go:build !unix

package dataset

import (
	"errors"
	"os"
)

// mmapFile always fails on platforms without unix mmap; ShardSource then
// serves reads through pread, which is slower but semantically identical.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errors.New("dataset: mmap unsupported on this platform")
}

func munmapFile(data []byte) {}

// fileSize returns the file's current size. It is only called on the
// mapped read path, which mmapFile never enables here.
func fileSize(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
