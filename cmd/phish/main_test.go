package main

import (
	"testing"

	"phish/internal/apps"
	"phish/internal/wire"
)

// The worker's exit code and the jobmanager's reading of it are one table:
// every listed reason survives the trip, and anything else is a crash.
func TestExitCodesRoundTrip(t *testing.T) {
	for r, code := range exitCodes {
		if got := exitCode(r); got != code {
			t.Errorf("exitCode(%v) = %d, want %d", r, got, code)
		}
		if got := leaveReason(code); got != r {
			t.Errorf("leaveReason(%d) = %v, want %v", code, got, r)
		}
	}
	for _, code := range []int{1, 2, 5, -1} {
		if got := leaveReason(code); got != wire.LeaveCrash {
			t.Errorf("leaveReason(%d) = %v, want %v", code, got, wire.LeaveCrash)
		}
	}
	// A worker drained for degradation is told apart from a crashed one, so
	// its manager sits out the drained cooldown.
	if got := leaveReason(exitCode(wire.LeaveDrained)); got != wire.LeaveDrained {
		t.Errorf("a drained worker's exit reads back as %v, want %v", got, wire.LeaveDrained)
	}
	if got := leaveReason(exitCode(wire.LeaveReason(99))); got != wire.LeaveCrash {
		t.Errorf("an unlisted reason reads back as %v, want %v", got, wire.LeaveCrash)
	}
}

// A role name as the first argument is never taken for a program.
func TestRolesAreNotPrograms(t *testing.T) {
	apps.RegisterAll()
	for role := range roles {
		if _, err := apps.Lookup(role); err == nil {
			t.Errorf("role %q is also a program name", role)
		}
	}
}
