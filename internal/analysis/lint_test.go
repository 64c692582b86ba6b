package analysis

import "testing"

func TestLockedCall(t *testing.T) {
	runFixture(t, LockedCallAnalyzer, "lockedcall/a")
}

func TestTypedErr(t *testing.T) {
	runFixture(t, TypedErrAnalyzer, "typederr/internal/core")
}

func TestWallClock(t *testing.T) {
	runFixture(t, WallClockAnalyzer, "wallclock/internal/history")
}

func TestSlotLeak(t *testing.T) {
	runFixture(t, SlotLeakAnalyzer, "slotleak/core")
}
