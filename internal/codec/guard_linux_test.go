package codec

import (
	"syscall"
	"testing"
)

func init() { tailGuarded = mmapTailGuarded }

// mmapTailGuarded returns size bytes of anonymous memory that end where a
// page mapped with no access begins, so a kernel that reads one byte past
// a block copied to the end of it faults.
func mmapTailGuarded(t *testing.T, size int) []uint8 {
	page := syscall.Getpagesize()
	span := (size+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, span, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[span-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return mem[span-page-size : span-page : span-page]
}
