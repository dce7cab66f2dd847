// The one failure policy of a run. Options.OnMissing names what the caller
// wants; every place a run can come up short — the step loop, its inbox, the
// gathers, the staging of rebuilt layers, the pipelined workers — asks the
// value built here what that means, instead of branching on the option
// itself.
package compositor

import (
	"errors"

	"rtcomp/internal/comm"
	"rtcomp/internal/telemetry"
)

// event is one way a run comes up short.
type event int8

const (
	evSendFailed  event = iota // a block or gather send, or the final broadcast, returned an error
	evDeadline                 // a receive deadline fired with messages still owed
	evPeerDied                 // the fabric reported a peer failure
	evCorrupt                  // a received payload does not decode
	evIncomplete               // a store holds a block not composited over every layer
	evGatherShort              // the gathered blocks do not cover the image
)

// verdict is the policy's answer to an event.
type verdict int8

const (
	fatal        verdict = iota // the run fails with the error
	countMissing                // the contribution counts as missing; the run carries on, degraded
	abortAttempt                // the attempt is abandoned, its FAILED notice sent; agreement decides what follows
	keepWaiting                 // grace: the peers are slow, not dead; wait another deadline
)

// errAborted is how an abortAttempt verdict travels up the call stack.
var errAborted = errors.New("compositor: attempt aborted")

// failPolicy answers every failure of one run. It is resolved once, from
// Options.OnMissing and — for the attempts of the Recover policy — the
// rexec, whose graceOrEscalate and abort are the only implementations of
// grace and of the FAILED notice. The compose-partial fallback epoch of a
// Recover run is a ComposePartial policy of its own.
type failPolicy struct {
	mode Policy // FailFast or ComposePartial; not consulted when rx is set
	rx   *rexec
	tel  *telemetry.Recorder
	me   int
}

func newFailPolicy(opts *Options, rx *rexec, me int) failPolicy {
	return failPolicy{mode: opts.OnMissing, rx: rx, tel: opts.Telemetry, me: me}
}

// on rules on one event. err is the failed operation's error (nil for the
// events that have none); suspects, for a deadline, are the peers still
// owing data, the silences grace counts.
//
//	event          fail    partial        recover
//	send failed    fatal   countMissing   abortAttempt   (fatal everywhere unless comm.IsRecoverable)
//	deadline       fatal   countMissing   keepWaiting while grace holds, else abortAttempt
//	peer died      fatal   countMissing   abortAttempt
//	corrupt        fatal   countMissing   abortAttempt
//	incomplete     fatal   countMissing   abortAttempt   (missing = blank the gaps)
//	gather short   fatal   fatal          abortAttempt   (a degraded frame's gather is never asked)
//
// Every deadline also counts deadline_hits; under Recover with
// Options.Grace it counts one silence per suspect (rexec.graceOrEscalate).
func (fp failPolicy) on(ev event, err error, suspects []int) verdict {
	if ev == evDeadline {
		fp.tel.Add(fp.me, telemetry.CtrDeadlineHits, 1)
	}
	switch {
	case ev == evSendFailed && !comm.IsRecoverable(err):
		return fatal // a fault of the local endpoint, not of a peer
	case fp.rx != nil:
		if ev == evDeadline && fp.rx.graceOrEscalate(suspects) {
			return keepWaiting
		}
		fp.rx.abort()
		return abortAttempt
	case fp.mode == ComposePartial && ev != evGatherShort:
		return countMissing
	}
	return fatal
}

// rule is on for a single failed operation, turned into the caller's control
// flow: nil when the operation counts as missing (tallied in rep), errAborted
// when the attempt is abandoned, err itself when it is fatal.
func (fp failPolicy) rule(rep *Report, gather bool, ev event, err error, suspects []int) error {
	switch fp.on(ev, err, suspects) {
	case countMissing:
		rep.lose(1, gather)
		return nil
	case abortAttempt:
		return errAborted
	}
	return err
}

// lose tallies n contributions ruled missing — scheduled transfers, or with
// gather set ranks whose final blocks never reached the root — and flags the
// result.
func (r *Report) lose(n int, gather bool) {
	r.Degraded = true
	if gather {
		r.MissingGathers += n
	} else {
		r.MissingTransfers += n
	}
}
