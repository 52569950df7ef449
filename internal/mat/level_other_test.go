//go:build !amd64

package mat

import "testing"

// forEachLevel runs f as one subtest per kernel level. Off amd64 only the
// portable level runs; the others are skipped by name.
func forEachLevel(t *testing.T, f func(t *testing.T)) {
	for l := kernelPortable; l <= kernelAVX512; l++ {
		t.Run(l.String(), func(t *testing.T) {
			if l != kernel {
				t.Skipf("host kernel level is %s", kernel)
			}
			f(t)
		})
	}
}
