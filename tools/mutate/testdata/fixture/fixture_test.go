package fixture

import "testing"

func TestLabel(t *testing.T) {
	if Label("a", "b") != "ab" {
		t.Fatal("Label")
	}
}

func TestMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(3, 2) != 3 || Max(2, 2) != 2 {
		t.Fatal("Max")
	}
}

func TestAdd(t *testing.T) {
	if Add(2) != 2 {
		t.Fatal("Add")
	}
}

func TestNote(t *testing.T) { Note(1) }

func TestSeen(t *testing.T) {
	if Seen() < 0 {
		t.Fatal("Seen")
	}
}
