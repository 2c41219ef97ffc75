package sim

import "testing"

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Error("clock should start at 0")
	}
	c.AdvanceTo(1.5)
	if c.Now() != 1.5 {
		t.Errorf("Now = %v", c.Now())
	}
	c.AdvanceTo(1.0) // past: ignored
	if c.Now() != 1.5 {
		t.Error("backward AdvanceTo not ignored")
	}
	c.AdvanceTo(2.0)
	if c.Now() != 2.0 {
		t.Errorf("AdvanceTo = %v", c.Now())
	}
}
