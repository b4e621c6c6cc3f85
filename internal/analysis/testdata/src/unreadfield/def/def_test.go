package def

import "testing"

func TestRecord(t *testing.T) {
	var c Counters
	if Record(&c, 1); c.probe != 1 {
		t.Fatal("probe")
	}
}
