package core

import (
	"sync"

	"rtcomp/internal/raster"
)

// Bounds of an engine's raster store: how many rasters it keeps and how many
// pixel bytes they hold together, whatever frame sizes callers ask for. At
// rtserve's defaults (P = 8, two render slots, 96³ into 384²) two frames in
// flight return 16 partials and 2 warped frames, about 1 MB.
const (
	storeSlots = 32
	storeBytes = 8 << 20
)

// rasterStore keeps the full-size rasters frames are done with, so the next
// frame of the same shape renders into them instead of asking the allocator
// (and the collector) for a few hundred kilobytes: a rank's partial image once
// compositor.Run has returned, the warped frame once its FrameReport is
// released. Rasters are matched by exact size; there are no size classes, so
// a raster that is not in the store costs exactly the raster.New it always
// did. The zero value is empty and ready; nothing in it allocates.
//
// The ownership rule: a raster is put back only by the goroutine that has
// proven nothing reads or writes it any more, and whoever gets it next owns
// it alone.
type rasterStore struct {
	mu    sync.Mutex
	free  [storeSlots]*raster.Image // oldest first
	n     int
	bytes int // pixel bytes held by free[:n]
}

// get returns a blank w×h raster: the most recently stored one of that size,
// cleared, or a new one. Every writer of an engine raster composites or warps
// onto blank pixels.
func (s *rasterStore) get(w, h int) *raster.Image {
	s.mu.Lock()
	for i := s.n - 1; i >= 0; i-- {
		if im := s.free[i]; im.W == w && im.H == h {
			s.drop(i)
			s.mu.Unlock()
			clear(im.Pix)
			return im
		}
	}
	s.mu.Unlock()
	return raster.New(w, h)
}

// put stores im for a later get, evicting the oldest rasters until both
// bounds hold. A raster larger than the whole byte bound is not kept.
func (s *rasterStore) put(im *raster.Image) {
	n := len(im.Pix)
	if n > storeBytes {
		return
	}
	s.mu.Lock()
	for s.n == len(s.free) || s.bytes+n > storeBytes {
		s.drop(0)
	}
	s.free[s.n] = im
	s.n++
	s.bytes += n
	s.mu.Unlock()
}

// drop removes free[i], keeping the rest in order. Called with mu held.
func (s *rasterStore) drop(i int) {
	s.bytes -= len(s.free[i].Pix)
	copy(s.free[i:s.n], s.free[i+1:s.n])
	s.n--
	s.free[s.n] = nil
}
