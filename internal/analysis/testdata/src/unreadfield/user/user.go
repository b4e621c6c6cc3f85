// Package user is the sibling of the unreadfield fixture def: its read
// of Counters.Shown keeps that field out of def's findings.
package user

import "compmig/internal/analysis/fixtures/unreadfield/def"

func shown(c *def.Counters) int { return c.Shown }
