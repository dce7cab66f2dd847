package comm

import "time"

// Defaults for SessionConfig fields left at their zero value.
const (
	// DefaultWindowFrames is the replay-window bound: how many
	// unacknowledged data frames a sender keeps pinned before Send blocks.
	DefaultWindowFrames = 256
	// DefaultMaxReconnects bounds redial attempts per connection outage.
	DefaultMaxReconnects = 8
	// DefaultReconnectTimeout bounds the whole reconnection of one broken
	// connection, across every redial attempt.
	DefaultReconnectTimeout = 10 * time.Second
	// DefaultHeartbeatInterval is the idle-link heartbeat period.
	DefaultHeartbeatInterval = time.Second
	// DefaultWriteTimeout bounds a single frame write on the wire.
	DefaultWriteTimeout = 10 * time.Second
)

// SessionConfig tunes a fabric's reliable per-peer sessions: the
// acknowledgement/replay window that masks transient connection faults
// below the compositor, and the reconnection budget after which a session
// gives up and escalates to the PeerError path (the recovery protocol's
// territory). The zero value selects the defaults above; negative values
// disable the respective mechanism where noted.
type SessionConfig struct {
	// WindowFrames bounds the unacknowledged data frames the sender keeps
	// pinned for replay; a Send against a full window blocks until the
	// peer acknowledges. Zero means DefaultWindowFrames.
	WindowFrames int
	// ReconnectTimeout bounds one outage end to end: if the session is not
	// resumed within it, the peer is failed. Zero means
	// DefaultReconnectTimeout.
	ReconnectTimeout time.Duration
	// MaxReconnects bounds redial attempts per outage. Zero means
	// DefaultMaxReconnects; a negative value disables reconnection
	// entirely, so any connection break immediately fails the peer (the
	// pre-session behaviour).
	MaxReconnects int
	// HeartbeatInterval is how often an idle session writes a heartbeat
	// frame, keeping a silent-but-healthy link distinguishable from a dead
	// one. Zero means DefaultHeartbeatInterval; negative disables
	// heartbeats (and with them the read-idle detection).
	HeartbeatInterval time.Duration
	// ReadIdleTimeout is how long a connection may stay silent before it
	// is presumed broken and reconnected. It is only armed when
	// heartbeats are enabled (otherwise an idle link is normal). Zero
	// means 5x HeartbeatInterval; negative disables idle detection.
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds a single frame write, so a stalled peer socket
	// surfaces as a reconnect instead of wedging the sender. Zero means
	// DefaultWriteTimeout.
	WriteTimeout time.Duration
}

// Resolved returns the config with every zero field replaced by its
// default, ready for use. Negative values pass through (they mean
// "disabled").
func (s SessionConfig) Resolved() SessionConfig {
	if s.WindowFrames == 0 {
		s.WindowFrames = DefaultWindowFrames
	}
	if s.ReconnectTimeout == 0 {
		s.ReconnectTimeout = DefaultReconnectTimeout
	}
	if s.MaxReconnects == 0 {
		s.MaxReconnects = DefaultMaxReconnects
	}
	if s.HeartbeatInterval == 0 {
		s.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if s.ReadIdleTimeout == 0 {
		if s.HeartbeatInterval > 0 {
			s.ReadIdleTimeout = 5 * s.HeartbeatInterval
		} else {
			s.ReadIdleTimeout = -1
		}
	}
	if s.WriteTimeout == 0 {
		s.WriteTimeout = DefaultWriteTimeout
	}
	return s
}

// ReconnectEnabled reports whether a broken connection is redialled and
// resumed rather than immediately failing the peer.
func (s SessionConfig) ReconnectEnabled() bool { return s.MaxReconnects >= 0 }

// HeartbeatsEnabled reports whether idle sessions emit heartbeat frames.
func (s SessionConfig) HeartbeatsEnabled() bool { return s.HeartbeatInterval > 0 }
