package dram

import (
	"fmt"
	"math/rand"
	"testing"
)

// The protocol oracle states the DDR command rules a second time, as
// minimum gaps over the issued-command history, written from Timing's
// field list rather than from CanIssue's state machine. Seeded random
// command streams then check, on every cycle and for every command kind
// and bank, that CanIssue agrees with it, so a rule CanIssue enforces too
// loosely and one it enforces too strictly both fail. Issue panics on
// anything CanIssue rejects, so the controller's command stream needs no
// checker of its own: what CanIssue admits is what reaches the channel.

// issued is one command of the oracle's history.
type issued struct {
	cmd       Command
	bank, row int
	cycle     int64
}

// protocol is the oracle for one rank: the commands issued so far and
// each bank's open row (-1 when closed), replayed from them.
type protocol struct {
	geo     Geometry
	t       Timing
	hist    []issued
	open    []int
	horizon int64 // no rule reaches further back than this many cycles
}

func newProtocol(geo Geometry, t Timing) *protocol {
	p := &protocol{geo: geo, t: t, open: make([]int, geo.Banks())}
	for b := range p.open {
		p.open[b] = -1
	}
	writeEnd := t.CWL + t.BL
	for _, gap := range []int{
		t.RC, t.RCD, t.RAS, t.RP, t.RTP, writeEnd + t.WR,
		t.RRDL, t.RRDS, t.FAW, t.CCDL, t.CCDS,
		writeEnd + t.WTRL, writeEnd + t.WTRS, t.RTW,
		t.CL + t.BL, writeEnd, t.RFC,
	} {
		if int64(gap) > p.horizon {
			p.horizon = int64(gap)
		}
	}
	return p
}

func (p *protocol) record(c issued) {
	p.hist = append(p.hist, c)
	switch c.cmd {
	case CmdACT:
		p.open[c.bank] = c.row
	case CmdPRE:
		p.open[c.bank] = -1
	}
}

// burst returns the data-bus cycles [start, end) a column command issued
// at cycle occupies.
func (p *protocol) burst(cmd Command, cycle int64) (start, end int64) {
	lat := p.t.CL
	if cmd == CmdWR {
		lat = p.t.CWL
	}
	start = cycle + int64(lat)
	return start, start + int64(p.t.BL)
}

// violation names the rule cmd to (bank, row) would break at cycle at, or
// returns "" when the command is legal.
func (p *protocol) violation(cmd Command, bank, row int, at int64) string {
	switch cmd {
	case CmdACT:
		if p.open[bank] != -1 {
			return "ACT needs a closed bank"
		}
	case CmdPRE:
		if p.open[bank] == -1 {
			return "PRE needs an open bank"
		}
	case CmdRD, CmdWR:
		if p.open[bank] != row {
			return "RD/WR need the open row"
		}
	case CmdREF:
		for _, open := range p.open {
			if open != -1 {
				return "REF needs every bank closed"
			}
		}
	}
	t := p.t
	group := bank / p.geo.BanksPerGroup
	recentACTs := 0
	for i := len(p.hist) - 1; i >= 0; i-- {
		h := p.hist[i]
		gap := at - h.cycle
		if gap >= p.horizon {
			break
		}
		sameBank := h.bank == bank
		sameGroup := h.bank/p.geo.BanksPerGroup == group
		writeEnd := h.cycle + int64(t.CWL+t.BL)
		if h.cmd == CmdREF && gap < int64(t.RFC) {
			return "nothing for tRFC after REF"
		}
		switch cmd {
		case CmdACT:
			switch {
			case h.cmd == CmdACT && sameBank && gap < int64(t.RC):
				return "same-bank ACT→ACT ≥ tRC"
			case h.cmd == CmdACT && sameGroup && gap < int64(t.RRDL):
				return "bank-group ACT→ACT ≥ tRRD_L"
			case h.cmd == CmdACT && gap < int64(t.RRDS):
				return "rank ACT→ACT ≥ tRRD_S"
			case h.cmd == CmdPRE && sameBank && gap < int64(t.RP):
				return "PRE→ACT ≥ tRP"
			}
			if h.cmd == CmdACT && gap < int64(t.FAW) {
				if recentACTs++; recentACTs == 4 {
					return "at most four ACTs in any tFAW"
				}
			}
		case CmdPRE:
			switch {
			case !sameBank:
			case h.cmd == CmdACT && gap < int64(t.RAS):
				return "ACT→PRE ≥ tRAS"
			case h.cmd == CmdRD && gap < int64(t.RTP):
				return "RD→PRE ≥ tRTP"
			case h.cmd == CmdWR && at < writeEnd+int64(t.WR):
				return "write-burst end→PRE ≥ tWR"
			}
		case CmdRD, CmdWR:
			switch h.cmd {
			case CmdACT:
				if sameBank && gap < int64(t.RCD) {
					return "ACT→RD/WR ≥ tRCD"
				}
				continue
			case CmdRD, CmdWR:
			default:
				continue
			}
			switch {
			case sameGroup && gap < int64(t.CCDL):
				return "bank-group CAS→CAS ≥ tCCD_L"
			case gap < int64(t.CCDS):
				return "rank CAS→CAS ≥ tCCD_S"
			case cmd == CmdRD && h.cmd == CmdWR && sameGroup && at < writeEnd+int64(t.WTRL):
				return "bank-group write-burst end→RD ≥ tWTR_L"
			case cmd == CmdRD && h.cmd == CmdWR && at < writeEnd+int64(t.WTRS):
				return "rank write-burst end→RD ≥ tWTR_S"
			case cmd == CmdWR && h.cmd == CmdRD && gap < int64(t.RTW):
				return "RD→WR ≥ tRTW"
			}
			start, end := p.burst(cmd, at)
			hStart, hEnd := p.burst(h.cmd, h.cycle)
			if start < hEnd && hStart < end {
				return "data bursts must not overlap"
			}
		case CmdREF:
			switch {
			case h.cmd == CmdPRE && gap < int64(t.RP):
				return "PRE→REF ≥ tRP"
			case h.cmd == CmdACT && gap < int64(t.RC):
				return "ACT→REF ≥ tRC"
			}
		}
	}
	return ""
}

// TestCanIssueMatchesProtocol drives a seeded random command stream
// through a channel of each timing set, with a close-every-bank-then-REF
// phase every refPeriod cycles, and asks CanIssue and the oracle about
// every command kind on every bank, every cycle: ACT with a random row,
// PRE, and RD and WR both to the open row and to one that is not open.
// For each it also pins ReadyAt: a future ReadyAt is the oracle's first
// legal cycle, and a Never is still illegal past the oracle's horizon.
func TestCanIssueMatchesProtocol(t *testing.T) {
	const cycles, refPeriod = 20_000, 1_500
	for _, tc := range []struct {
		name   string
		timing func(rowsPerBank int) Timing
		seed   int64
	}{
		{"DDR4_2400", DDR4_2400, 1},
		{"DDR3_1600", DDR3_1600, 2},
		{"LPDDR4_3200", LPDDR4_3200, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			geo := Table6Geometry()
			ch, err := NewChannel(geo, tc.timing(geo.Rows))
			if err != nil {
				t.Fatal(err)
			}
			p := newProtocol(geo, ch.T)
			rng := rand.New(rand.NewSource(tc.seed))
			var legal []issued
			counts := map[Command]int{}
			check := func(cmd Command, bank, row int, cycle int64) {
				can := ch.CanIssue(cmd, 0, bank, row, cycle)
				why := p.violation(cmd, bank, row, cycle)
				if can != (why == "") {
					if why == "" {
						why = "legal"
					}
					t.Fatalf("cycle %d: CanIssue(%v, bank %d, row %d) = %v; the oracle says %s",
						cycle, cmd, bank, row, can, why)
				}
				if can {
					legal = append(legal, issued{cmd, bank, row, cycle})
				}
				// ReadyAt names the first legal cycle if nothing issues
				// before it: the oracle must agree there and one cycle
				// earlier, and a Never must outlast every timing rule.
				switch ready := ch.ReadyAt(cmd, 0, bank, row); {
				case ready == Never:
					if at := cycle + p.horizon + 64; p.violation(cmd, bank, row, at) == "" {
						t.Fatalf("cycle %d: ReadyAt(%v, bank %d, row %d) = Never, yet the oracle finds it legal at %d",
							cycle, cmd, bank, row, at)
					}
				case ready > cycle:
					if why := p.violation(cmd, bank, row, ready); why != "" {
						t.Fatalf("cycle %d: ReadyAt(%v, bank %d, row %d) = %d; the oracle says %s there",
							cycle, cmd, bank, row, ready, why)
					}
					if p.violation(cmd, bank, row, ready-1) == "" {
						t.Fatalf("cycle %d: ReadyAt(%v, bank %d, row %d) = %d; the oracle finds it legal a cycle earlier",
							cycle, cmd, bank, row, ready)
					}
				}
			}
			refDue := false
			for cycle := int64(0); cycle < cycles; cycle++ {
				if cycle%refPeriod == refPeriod-1 {
					refDue = true
				}
				legal = legal[:0]
				check(CmdREF, 0, 0, cycle)
				for b := 0; b < geo.Banks(); b++ {
					open := ch.OpenRow(0, b)
					check(CmdACT, b, rng.Intn(8), cycle)
					check(CmdPRE, b, 0, cycle)
					other := (open + 1 + rng.Intn(8)) % geo.Rows
					for _, row := range []int{open, other} {
						if row >= 0 {
							check(CmdRD, b, row, cycle)
							check(CmdWR, b, row, cycle)
						}
					}
				}
				c, ok := pick(rng, legal, refDue)
				if !ok {
					continue
				}
				ch.Issue(c.cmd, 0, c.bank, c.row, c.cycle)
				p.record(c)
				counts[c.cmd]++
				if c.cmd == CmdREF {
					refDue = false
				}
			}
			for _, cmd := range []Command{CmdACT, CmdPRE, CmdRD, CmdWR, CmdREF} {
				if counts[cmd] == 0 {
					t.Errorf("the stream never issued %v", cmd)
				}
			}
			t.Logf("%d commands checked against %d cycles: %v", len(p.hist), cycles, fmt.Sprint(counts))
		})
	}
}

// pick chooses the command to issue this cycle from the legal ones, or
// none. While a REF is due it closes banks and then issues the REF;
// otherwise it draws a command kind (RD three times and WR twice as often
// as ACT or PRE, which keeps the data bus and both turnarounds busy under
// every timing set) and issues a random legal command of that kind, if
// there is one.
func pick(rng *rand.Rand, legal []issued, refDue bool) (issued, bool) {
	want := []Command{CmdACT, CmdPRE, CmdRD, CmdRD, CmdRD, CmdWR, CmdWR}[rng.Intn(7)]
	if refDue {
		want = CmdPRE
		for _, c := range legal {
			if c.cmd == CmdREF {
				return c, true
			}
		}
	}
	var choice issued
	n := 0
	for _, c := range legal {
		if c.cmd == want {
			// Reservoir sampling: each legal command of the kind is
			// equally likely.
			if n++; rng.Intn(n) == 0 {
				choice = c
			}
		}
	}
	return choice, n > 0
}
