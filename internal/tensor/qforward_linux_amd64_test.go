package tensor

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guardedI8 returns an n-value slice that ends where an inaccessible page
// begins (atEnd) or starts where one ends, so a kernel that reads one byte
// past either end of it faults; free unmaps it.
func guardedI8(t *testing.T, n int, atEnd bool) (xs []int8, free func()) {
	t.Helper()
	page := syscall.Getpagesize()
	data := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	for _, guard := range [][]byte{mem[:page], mem[page+data:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	off := page
	if atEnd {
		off = page + data - n
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&mem[off])), n), func() { syscall.Munmap(mem) }
}

// TestPackQPanelsStaysInsideInput packs inputs placed against an
// inaccessible page at either end: the 16- and 32-byte tap reads of the
// AVX2 packer must never leave the batch tensor, whatever the padding,
// stride and batch put at its edges.
func TestPackQPanelsStaysInsideInput(t *testing.T) {
	if !qForwardAVX2 {
		t.Skip("the int8 AVX2 kernels are not selected on this host")
	}
	r := rand.New(rand.NewSource(89))
	cases := []qPackCase{
		{1, 3, 5, 5, 1, 1, 0}, {1, 64, 4, 4, 3, 1, 1}, {2, 3, 9, 9, 1, 2, 0},
		{1, 3, 12, 12, 7, 2, 3}, {1, 2, 40, 40, 3, 1, 0}, {2, 4, 6, 6, 3, 1, 2},
		{1, 32, 1, 1, 1, 1, 0}, {1, 16, 2, 2, 3, 2, 1}, {3, 5, 11, 7, 7, 1, 3},
	}
	for _, pc := range cases {
		g, ok := pc.geom()
		if !ok {
			t.Fatalf("%+v: empty output", pc)
		}
		src := randQ8(r, g.n*g.c*g.h*g.w, 128)
		for _, atEnd := range []bool{false, true} {
			in, free := guardedI8(t, len(src), atEnd)
			copy(in, src)
			for _, blocks := range []int{1, 3} {
				qPackBoth(t, &g, in, blocks)
			}
			free()
		}
	}
}
