package comm

import (
	"reflect"
	"testing"
	"time"
)

func TestSessionConfigResolvedDefaults(t *testing.T) {
	r := SessionConfig{}.Resolved()
	if r.WindowFrames != DefaultWindowFrames {
		t.Errorf("WindowFrames = %d", r.WindowFrames)
	}
	if r.ReconnectTimeout != DefaultReconnectTimeout {
		t.Errorf("ReconnectTimeout = %v", r.ReconnectTimeout)
	}
	if r.MaxReconnects != DefaultMaxReconnects {
		t.Errorf("MaxReconnects = %d", r.MaxReconnects)
	}
	if r.HeartbeatInterval != DefaultHeartbeatInterval {
		t.Errorf("HeartbeatInterval = %v", r.HeartbeatInterval)
	}
	if r.ReadIdleTimeout != 5*DefaultHeartbeatInterval {
		t.Errorf("ReadIdleTimeout = %v, want 5x heartbeat", r.ReadIdleTimeout)
	}
	if r.WriteTimeout != DefaultWriteTimeout {
		t.Errorf("WriteTimeout = %v", r.WriteTimeout)
	}
	if !r.ReconnectEnabled() || !r.HeartbeatsEnabled() {
		t.Error("defaults must enable reconnection and heartbeats")
	}
}

func TestSessionConfigNegativeDisables(t *testing.T) {
	r := SessionConfig{MaxReconnects: -1, HeartbeatInterval: -1}.Resolved()
	if r.ReconnectEnabled() {
		t.Error("MaxReconnects < 0 must disable reconnection")
	}
	if r.HeartbeatsEnabled() {
		t.Error("HeartbeatInterval < 0 must disable heartbeats")
	}
	// Without heartbeats there is no traffic floor to judge idleness by, so
	// the idle deadline resolves disabled too.
	if r.ReadIdleTimeout > 0 {
		t.Errorf("ReadIdleTimeout = %v with heartbeats disabled", r.ReadIdleTimeout)
	}
}

func TestSessionConfigExplicitValuesKept(t *testing.T) {
	in := SessionConfig{
		WindowFrames:      7,
		ReconnectTimeout:  3 * time.Second,
		MaxReconnects:     2,
		HeartbeatInterval: 250 * time.Millisecond,
		ReadIdleTimeout:   time.Second,
		WriteTimeout:      time.Second,
	}
	if got := in.Resolved(); !reflect.DeepEqual(got, in) {
		t.Errorf("Resolved() = %+v, want unchanged %+v", got, in)
	}
}
