// Package user is the sibling of the unusedexport fixture def: its uses
// of def's names keep them out of def's findings.
package user

import "compmig/internal/analysis/fixtures/unusedexport/def"

type sizer interface{ Size() int }

func measure(s sizer) int { return s.Size() }

func total() int { return def.Used() + measure(&def.Widget{}) }
