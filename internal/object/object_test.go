package object

import (
	"testing"

	"compmig/internal/gid"
)

func TestNewAndState(t *testing.T) {
	s := NewSpace(4)
	type payload struct{ x int }
	g := s.New(2, &payload{x: 7})
	if s.Home(g) != 2 {
		t.Errorf("home = %d", s.Home(g))
	}
	if got := s.State(g).(*payload); got.x != 7 {
		t.Errorf("state = %+v", got)
	}
	if !s.Exists(g) {
		t.Error("object missing")
	}
	if len(s.states) != 1 || s.nprocs != 4 {
		t.Errorf("len=%d procs=%d", len(s.states), s.nprocs)
	}
}

func TestDistinctGIDs(t *testing.T) {
	s := NewSpace(8)
	seen := map[any]bool{}
	for i := 0; i < 100; i++ {
		g := s.New(i%8, i)
		if seen[g] {
			t.Fatal("duplicate gid")
		}
		seen[g] = true
	}
}

func TestHomeOutOfRangePanics(t *testing.T) {
	s := NewSpace(2)
	defer func() {
		if recover() == nil {
			t.Fatal("bad home accepted")
		}
	}()
	s.New(5, nil)
}

func TestUnknownStatePanics(t *testing.T) {
	s := NewSpace(2)
	g := s.New(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown gid accepted")
		}
	}()
	s.State(g + 12345)
}

// hasMoved reports whether g lives away from its birth processor.
func hasMoved(s *Space, g gid.GID) bool {
	_, ok := s.moved[g]
	return ok
}

func TestMoveAndHome(t *testing.T) {
	s := NewSpace(4)
	g := s.New(1, "payload")
	if s.Home(g) != 1 || hasMoved(s, g) {
		t.Fatal("fresh object in wrong place")
	}
	s.Move(g, 3)
	if s.Home(g) != 3 || !hasMoved(s, g) {
		t.Fatalf("after move: home=%d moved=%v", s.Home(g), hasMoved(s, g))
	}
	if s.Moves != 1 {
		t.Errorf("moves = %d", s.Moves)
	}
	// Moving back to the birth processor clears the override.
	s.Move(g, 1)
	if hasMoved(s, g) {
		t.Error("move home did not clear the override")
	}
	if s.Home(g) != 1 {
		t.Errorf("home = %d", s.Home(g))
	}
}

func TestMoveValidation(t *testing.T) {
	s := NewSpace(2)
	g := s.New(0, nil)
	for _, fn := range []func(){
		func() { s.Move(g, 7) },     // out of range
		func() { s.Move(g+999, 1) }, // unknown object
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid move accepted")
				}
			}()
			fn()
		}()
	}
}
