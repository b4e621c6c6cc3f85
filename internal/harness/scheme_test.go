package harness

import (
	"testing"

	"compmig/internal/core"
)

func TestParseScheme(t *testing.T) {
	cases := []struct {
		in   string
		want core.Scheme
	}{
		{"rpc", core.Scheme{Mechanism: core.RPC}},
		{"cm", core.Scheme{Mechanism: core.Migrate}},
		{"cp", core.Scheme{Mechanism: core.Migrate}},
		{"sm", core.Scheme{Mechanism: core.SharedMem}},
		{"CM+HW", core.Scheme{Mechanism: core.Migrate, HWMessaging: true, HWTranslate: true}},
		{"rpc+repl", core.Scheme{Mechanism: core.RPC, Replication: true}},
		{"cm+repl+hw", core.Scheme{Mechanism: core.Migrate, Replication: true, HWMessaging: true, HWTranslate: true}},
	}
	for _, c := range cases {
		got, err := ParseScheme(c.in)
		if err != nil {
			t.Errorf("ParseScheme(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseScheme(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseSchemeErrors(t *testing.T) {
	for _, in := range []string{"", "tcp", "cm+turbo", "sm+hw", "sm+repl", "om+repl"} {
		if _, err := ParseScheme(in); err == nil {
			t.Errorf("ParseScheme(%q) accepted", in)
		}
	}
}
