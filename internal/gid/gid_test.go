package gid

import (
	"testing"
	"testing/quick"
)

func TestMakeRoundTrip(t *testing.T) {
	g := Make(17, 42)
	if g.Home() != 17 {
		t.Errorf("home = %d", g.Home())
	}
	if uint32(g) != 42 {
		t.Errorf("serial = %d", uint32(g))
	}
	if g.IsNil() {
		t.Error("valid gid reported nil")
	}
	if !Nil.IsNil() {
		t.Error("Nil not nil")
	}
}

func TestMakeRejectsZeroSerial(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero serial accepted")
		}
	}()
	Make(0, 0)
}

func TestAllocatorUnique(t *testing.T) {
	var a Allocator
	seen := make(map[GID]bool)
	for i := 0; i < 1000; i++ {
		g := a.Next(i % 48)
		if seen[g] {
			t.Fatalf("duplicate gid %v", g)
		}
		seen[g] = true
		if g.Home() != i%48 {
			t.Fatalf("home = %d, want %d", g.Home(), i%48)
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	if err := quick.Check(func(home uint16, serial uint32) bool {
		if serial == 0 {
			serial = 1
		}
		g := Make(int(home), serial)
		return g.Home() == int(home) && uint32(g) == serial && !g.IsNil()
	}, nil); err != nil {
		t.Fatal(err)
	}
}
