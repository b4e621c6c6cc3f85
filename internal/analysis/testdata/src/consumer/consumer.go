// Package consumer is the fixture module's nested consumer: its uses
// keep unusedexport's def.ConsumerOnly and unreadfield's
// Counters.Remote out of the findings.
package consumer

import (
	urdef "compmig/internal/analysis/fixtures/unreadfield/def"
	uedef "compmig/internal/analysis/fixtures/unusedexport/def"
)

func remote(c *urdef.Counters) int { return c.Remote + uedef.ConsumerOnly() }
