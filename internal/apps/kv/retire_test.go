package kv

import (
	"testing"

	"compmig/internal/clitest"
	"compmig/internal/core"
)

// TestRunAllocs pins what a finished open-loop run hands to the next:
// three identical small CM runs back to back, the first from an empty
// retired stack (see clitest.RunAllocs). The arrivals' threads, events
// and carriers and the message path's records are revived, not made
// again.
func TestRunAllocs(t *testing.T) {
	cfg := Config{
		Scheme: core.Scheme{Mechanism: core.Migrate},
		Load:   mustSpec(t, "keys=256,ops=400,period=100,zipf=0.9,mix=70:25:5,scan=8"),
	}
	clitest.RunAllocs(t, func() { RunExperiment(cfg) })
}
