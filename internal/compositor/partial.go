// Hand-off between the frame under assembly and the OnPartial consumer.
//
// Invoking OnPartial inline would make the whole pipeline's progress hostage
// to the callback: a consumer that blocked (a stuck websocket, a full
// encoder queue) would stall the goroutine that landed the tile's last
// contribution — the root's gather, or one of its workers. Frames pass
// through a channel with one slot per tile to a dedicated delivery
// goroutine instead, so nothing of the run ever waits on the consumer.
package compositor

import "rtcomp/internal/raster"

// partialPump decouples OnPartial callbacks from the run. Pix is copied
// before publication, so frames remain valid however long the consumer
// holds them.
type partialPump struct {
	ch   chan PartialFrame
	done chan struct{}
}

// newPartialPump starts the delivery goroutine, which runs the callbacks
// strictly in publication order. The run publishes each tile at most
// once, so a buffer of one slot per tile never fills.
func newPartialPump(cb func(PartialFrame), tiles int) *partialPump {
	if cb == nil {
		return nil
	}
	pp := &partialPump{ch: make(chan PartialFrame, tiles), done: make(chan struct{})}
	go func() {
		defer close(pp.done)
		for f := range pp.ch {
			cb(f)
		}
	}()
	return pp
}

// publish hands one frame, its pixels copied out of the frame under
// assembly, to the delivery goroutine.
func (pp *partialPump) publish(tile int, span raster.Span, pix []byte, done, total int) {
	if pp == nil {
		return
	}
	pp.ch <- PartialFrame{Tile: tile, Span: span, Done: done, Total: total,
		Pix: append(make([]byte, 0, len(pix)), pix...)}
}

// finish closes the stream and waits for every published frame to be
// delivered before returning (the progressive-delivery guarantee).
func (pp *partialPump) finish() {
	if pp == nil {
		return
	}
	close(pp.ch)
	<-pp.done
}
