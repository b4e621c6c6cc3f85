package stats

import (
	"strings"
	"testing"
)

func TestCycleAccounting(t *testing.T) {
	c := NewCollector()
	c.AddCycles(CatMarshal, 22)
	c.AddCycles(CatMarshal, 22)
	c.AddCycles(CatUserCode, 150)
	if c.cycles[CatMarshal] != 44 {
		t.Errorf("marshal = %d", c.cycles[CatMarshal])
	}
	if c.TotalCycles() != 194 {
		t.Errorf("total = %d", c.TotalCycles())
	}
	if c.SumCycles(SenderCategories()) != 44 {
		t.Errorf("sender sum = %d", c.SumCycles(SenderCategories()))
	}
}

func TestMessageAccounting(t *testing.T) {
	c := NewCollector()
	c.CountMessage(10)
	c.CountMessage(10)
	c.CountMessage(8)
	if c.TotalMessages() != 3 {
		t.Errorf("messages = %d", c.TotalMessages())
	}
	if c.WordsSent != 28 {
		t.Errorf("words = %d", c.WordsSent)
	}
}

func TestMeanOpLatency(t *testing.T) {
	c := NewCollector()
	if c.MeanOpLatency() != 0 {
		t.Error("empty collector latency nonzero")
	}
	c.CountOp(100)
	c.CountOp(300)
	if c.MeanOpLatency() != 200 {
		t.Errorf("mean latency = %v", c.MeanOpLatency())
	}
}

func TestHitRate(t *testing.T) {
	c := NewCollector()
	if c.HitRate() != 0 {
		t.Error("empty hit rate nonzero")
	}
	c.CacheHits = 3
	c.CacheMisses = 1
	if c.HitRate() != 0.75 {
		t.Errorf("hit rate = %v", c.HitRate())
	}
}

func TestBreakdownTable5Shape(t *testing.T) {
	c := NewCollector()
	// Table 5 numbers for one migration.
	c.AddCycles(CatUserCode, 150)
	c.AddCycles(CatNetworkTransit, 17)
	c.AddCycles(CatCopyPacket, 76)
	c.AddCycles(CatThreadCreation, 66)
	c.AddCycles(CatRecvLinkage, 66)
	c.AddCycles(CatUnmarshal, 51)
	c.AddCycles(CatGIDTranslation, 36)
	c.AddCycles(CatScheduler, 36)
	c.AddCycles(CatForwardingCheck, 23)
	c.AddCycles(CatRecvAllocPacket, 16)
	c.AddCycles(CatSendLinkage, 44)
	c.AddCycles(CatSendAllocPacket, 35)
	c.AddCycles(CatMessageSend, 23)
	c.AddCycles(CatMarshal, 22)

	rows := c.Breakdown(1)
	byLabel := map[string]BreakdownRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	if byLabel["Receiver total"].Cycles != 370 {
		t.Errorf("receiver total = %v", byLabel["Receiver total"].Cycles)
	}
	if byLabel["Sender total"].Cycles != 124 {
		t.Errorf("sender total = %v", byLabel["Sender total"].Cycles)
	}
	// Message overhead should dominate (paper: 74%).
	mo := byLabel["Message overhead total"]
	if mo.Percent < 60 || mo.Percent > 85 {
		t.Errorf("message overhead percent = %v, want ~74", mo.Percent)
	}
	// Dividing by 2 migrations halves the cycles.
	half := c.Breakdown(2)
	if half[0].Cycles*2 != rows[0].Cycles {
		t.Error("divisor not applied")
	}
	// Percentages unchanged by divisor.
	if half[1].Percent != rows[1].Percent {
		t.Error("percent should not depend on divisor")
	}
}

func TestCategoryString(t *testing.T) {
	if CatMarshal.String() != "Marshaling" {
		t.Errorf("got %q", CatMarshal.String())
	}
	if !strings.Contains(Category(99).String(), "99") {
		t.Error("out-of-range category String not defensive")
	}
}
