package core

import (
	"sync"
	"sync/atomic"

	"rtcomp/internal/comm"
	"rtcomp/internal/transport/inproc"
)

// meshSlots bounds the idle in-process fabrics an engine keeps per P.
// rtserve renders two frames at once by default (-slots 2), so two fabrics
// per P are in use at a time; the other slots absorb a burst of more.
const meshSlots = 4

// meshStore keeps the in-process fabrics of finished frames, per P, so the
// next frame runs its ranks on one — endpoints, mailboxes, their queues and
// deadline timers — instead of building a mesh. A fabric goes back only if
// the frame that ran on it settled cleanly: every rank returned nil, the
// frame's caller is still waiting for it, and the fabric is Idle (every
// mailbox open, empty, with no failed source and no dedup state). Any other
// fabric is closed and dropped, so no message of one frame can reach the
// next. The zero value is empty and ready.
type meshStore struct {
	mu   sync.Mutex
	idle map[int][]*inproc.Fabric // per P, the most recently returned last

	// running counts the frames RenderCtx runs, so a test can wait for those
	// it gave up on to settle.
	running sync.WaitGroup
}

// run runs fn on every rank of an idle p-rank fabric, or of a new one, and
// keeps the fabric for a later frame if the run settled cleanly. A non-nil
// gaveUp set by the time the ranks return means the frame's caller stopped
// waiting for it.
func (s *meshStore) run(p int, gaveUp *atomic.Bool, fn func(c comm.Comm) error) error {
	f := s.get(p)
	err := f.Run(fn)
	if err != nil || (gaveUp != nil && gaveUp.Load()) || !f.Idle() {
		f.Close()
		return err
	}
	s.put(p, f)
	return nil
}

// get takes the most recently returned idle p-rank fabric, or builds one.
func (s *meshStore) get(p int) *inproc.Fabric {
	s.mu.Lock()
	defer s.mu.Unlock()
	free := s.idle[p]
	if len(free) == 0 {
		return inproc.New(p)
	}
	f := free[len(free)-1]
	free[len(free)-1] = nil
	s.idle[p] = free[:len(free)-1]
	return f
}

// put keeps an idle p-rank fabric, or closes it when meshSlots are taken.
func (s *meshStore) put(p int, f *inproc.Fabric) {
	s.mu.Lock()
	defer s.mu.Unlock()
	free := s.idle[p]
	if len(free) == meshSlots {
		f.Close()
		return
	}
	if s.idle == nil {
		s.idle = make(map[int][]*inproc.Fabric)
	}
	s.idle[p] = append(free, f)
}
