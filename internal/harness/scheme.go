package harness

import (
	"fmt"
	"strings"

	"compmig/internal/core"
)

// ParseScheme parses a command-line scheme spec: a mechanism ("rpc",
// "cm", "sm", or "om") optionally followed by "+hw" and/or "+repl",
// e.g. "cm+repl+hw". Shared memory takes neither option and object
// migration takes no "+repl".
func ParseScheme(spec string) (core.Scheme, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(spec)), "+")
	var s core.Scheme
	switch parts[0] {
	case "rpc":
		s.Mechanism = core.RPC
	case "cm", "cp", "migrate":
		s.Mechanism = core.Migrate
	case "sm", "shm", "sharedmem":
		s.Mechanism = core.SharedMem
	case "om", "obj", "objmigrate":
		s.Mechanism = core.ObjMigrate
	default:
		return s, fmt.Errorf("unknown mechanism %q (want rpc, cm, sm, or om)", parts[0])
	}
	for _, opt := range parts[1:] {
		switch opt {
		case "hw":
			s.HWMessaging = true
			s.HWTranslate = true
		case "repl":
			s.Replication = true
		default:
			return s, fmt.Errorf("unknown scheme option %q (want hw or repl)", opt)
		}
	}
	if s.Mechanism == core.SharedMem && (s.HWMessaging || s.Replication) {
		return s, fmt.Errorf("shared memory already includes hardware support and replication")
	}
	if s.Mechanism == core.ObjMigrate && s.Replication {
		return s, fmt.Errorf("object migration moves the object itself; it does not read replicas")
	}
	return s, nil
}
