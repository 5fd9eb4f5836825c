package dram

import (
	"fmt"
	"math"
)

// bankState tracks one bank's open row and per-bank timing horizon.
type bankState struct {
	openRow int   // -1 when precharged
	nextACT int64 // earliest cycle an ACT may issue
	nextPRE int64
	nextRD  int64
	nextWR  int64
}

// rankState tracks rank-scoped constraints (tRRD, tFAW, tCCD, tWTR, bus).
type rankState struct {
	lastACT    int64    // most recent ACT anywhere in the rank
	lastACTBG  []int64  // most recent ACT per bank group
	lastCASBG  []int64  // most recent RD/WR issue per bank group
	lastCAS    int64    // most recent RD/WR issue anywhere
	lastRD     int64    // most recent RD issue (for tRTW)
	lastWREnd  []int64  // end of most recent write burst per bank group
	lastWREndR int64    // end of most recent write burst anywhere
	faw        [4]int64 // issue cycles of the last four ACTs
	fawIdx     int
	refPtr     int // next row REF covers in every bank (all-bank REF moves them together)
}

// Channel is a cycle-accurate model of one DRAM channel: its banks, their
// open rows, and every timing constraint between commands. All cycles are
// in memory-clock units. It is a pure timing model with no hooks: the
// memory controller that issues each command also publishes it.
type Channel struct {
	Geo Geometry
	T   Timing

	banks []bankState // [rank][bankGroup][bank] flattened
	ranks []rankState

	busBusyUntil int64 // data-bus reservation horizon

	// Statistics.
	Stats ChannelStats
}

// ChannelStats aggregates channel activity counters.
type ChannelStats struct {
	ACTs, PREs, RDs, WRs, REFs int64
	BusBusyCycles              int64 // data-bus cycles carrying bursts
	RefreshBusyCycles          int64 // bank-cycles consumed by REF (tRFC each)
}

// NewChannel builds a channel with the given geometry and timing.
func NewChannel(geo Geometry, t Timing) (*Channel, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	ch := &Channel{Geo: geo, T: t}
	ch.banks = make([]bankState, geo.Ranks*geo.Banks())
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	ch.ranks = make([]rankState, geo.Ranks)
	for r := range ch.ranks {
		ch.ranks[r].lastACTBG = make([]int64, geo.BankGroups)
		ch.ranks[r].lastCASBG = make([]int64, geo.BankGroups)
		ch.ranks[r].lastWREnd = make([]int64, geo.BankGroups)
		for i := range ch.ranks[r].faw {
			ch.ranks[r].faw[i] = -1 << 62
		}
		ch.ranks[r].lastACT = -1 << 62
		ch.ranks[r].lastCAS = -1 << 62
		ch.ranks[r].lastRD = -1 << 62
		ch.ranks[r].lastWREndR = -1 << 62
		for g := 0; g < geo.BankGroups; g++ {
			ch.ranks[r].lastACTBG[g] = -1 << 62
			ch.ranks[r].lastCASBG[g] = -1 << 62
			ch.ranks[r].lastWREnd[g] = -1 << 62
		}
	}
	return ch, nil
}

func (ch *Channel) bankIndex(rank, bank int) int { return rank*ch.Geo.Banks() + bank }

func (ch *Channel) bankGroupOf(bank int) int { return bank / ch.Geo.BanksPerGroup }

// OpenRow returns the row currently open in a bank, or -1 if precharged.
func (ch *Channel) OpenRow(rank, bank int) int {
	return ch.banks[ch.bankIndex(rank, bank)].openRow
}

// Never is the ReadyAt of a command the bank's open-row state rules out:
// no amount of waiting makes it legal, only a command that opens or
// closes the row.
const Never int64 = math.MaxInt64

// ReadyAt returns the earliest cycle at which cmd targeting (rank, bank,
// row) may legally issue if no other command issues before it, or Never
// when the bank's open-row state rules it out (an ACT to an open bank, a
// PRE to a closed one, a RD or WR to a row that is not open, a REF while
// any bank of the rank is open). For REF, bank and row are ignored. Every
// timing rule the channel enforces is written here once, as the latest of
// the cycles its constraints allow.
func (ch *Channel) ReadyAt(cmd Command, rank, bank, row int) int64 {
	rk := &ch.ranks[rank]
	switch cmd {
	case CmdACT:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		if b.openRow != -1 {
			return Never
		}
		g := ch.bankGroupOf(bank)
		// tFAW: at most four ACTs in any FAW window, so the oldest of the
		// last four bounds the next.
		return max(b.nextACT, rk.lastACTBG[g]+int64(ch.T.RRDL), rk.lastACT+int64(ch.T.RRDS),
			rk.faw[rk.fawIdx]+int64(ch.T.FAW))
	case CmdPRE:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		if b.openRow == -1 {
			return Never
		}
		return b.nextPRE
	case CmdRD:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		if b.openRow == -1 || b.openRow != row {
			return Never
		}
		g := ch.bankGroupOf(bank)
		// tCCD, the write-to-read turnaround, and a free data bus when
		// the burst starts.
		return max(b.nextRD, rk.lastCASBG[g]+int64(ch.T.CCDL), rk.lastCAS+int64(ch.T.CCDS),
			rk.lastWREnd[g]+int64(ch.T.WTRL), rk.lastWREndR+int64(ch.T.WTRS),
			ch.busBusyUntil-int64(ch.T.CL))
	case CmdWR:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		if b.openRow == -1 || b.openRow != row {
			return Never
		}
		g := ch.bankGroupOf(bank)
		// tCCD, the read-to-write turnaround, and a free data bus.
		return max(b.nextWR, rk.lastCASBG[g]+int64(ch.T.CCDL), rk.lastCAS+int64(ch.T.CCDS),
			rk.lastRD+int64(ch.T.RTW), ch.busBusyUntil-int64(ch.T.CWL))
	case CmdREF:
		ready := int64(math.MinInt64)
		for b := 0; b < ch.Geo.Banks(); b++ {
			bs := &ch.banks[ch.bankIndex(rank, b)]
			if bs.openRow != -1 {
				return Never
			}
			ready = max(ready, bs.nextACT)
		}
		return ready
	default:
		return Never
	}
}

// CanIssue reports whether cmd targeting (rank, bank, row) may legally
// issue at the given cycle. For REF, bank and row are ignored.
func (ch *Channel) CanIssue(cmd Command, rank, bank, row int, cycle int64) bool {
	return cycle >= ch.ReadyAt(cmd, rank, bank, row)
}

// Issue performs cmd at the given cycle. It returns the cycle at which
// read data becomes available (for CmdRD; zero otherwise). Issuing an
// illegal command is a programming error and panics: the controller must
// gate every Issue with CanIssue.
func (ch *Channel) Issue(cmd Command, rank, bank, row int, cycle int64) int64 {
	if !ch.CanIssue(cmd, rank, bank, row, cycle) {
		panic(fmt.Sprintf("dram: illegal %v to rank %d bank %d row %d at cycle %d",
			cmd, rank, bank, row, cycle))
	}
	rk := &ch.ranks[rank]
	switch cmd {
	case CmdACT:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		b.openRow = row
		b.nextRD = cycle + int64(ch.T.RCD)
		b.nextWR = cycle + int64(ch.T.RCD)
		b.nextPRE = cycle + int64(ch.T.RAS)
		b.nextACT = cycle + int64(ch.T.RC)
		g := ch.bankGroupOf(bank)
		rk.lastACTBG[g] = cycle
		rk.lastACT = cycle
		rk.faw[rk.fawIdx] = cycle
		rk.fawIdx = (rk.fawIdx + 1) % len(rk.faw)
		ch.Stats.ACTs++
		return 0
	case CmdPRE:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		b.openRow = -1
		if next := cycle + int64(ch.T.RP); next > b.nextACT {
			b.nextACT = next
		}
		ch.Stats.PREs++
		return 0
	case CmdRD:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		g := ch.bankGroupOf(bank)
		rk.lastCASBG[g] = cycle
		rk.lastCAS = cycle
		rk.lastRD = cycle
		start := cycle + int64(ch.T.CL)
		ch.busBusyUntil = start + int64(ch.T.BL)
		ch.Stats.BusBusyCycles += int64(ch.T.BL)
		if next := cycle + int64(ch.T.RTP); next > b.nextPRE {
			b.nextPRE = next
		}
		ch.Stats.RDs++
		return start + int64(ch.T.BL)
	case CmdWR:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		g := ch.bankGroupOf(bank)
		rk.lastCASBG[g] = cycle
		rk.lastCAS = cycle
		start := cycle + int64(ch.T.CWL)
		end := start + int64(ch.T.BL)
		ch.busBusyUntil = end
		ch.Stats.BusBusyCycles += int64(ch.T.BL)
		rk.lastWREnd[g] = end
		rk.lastWREndR = end
		if next := end + int64(ch.T.WR); next > b.nextPRE {
			b.nextPRE = next
		}
		ch.Stats.WRs++
		return 0
	case CmdREF:
		for b := 0; b < ch.Geo.Banks(); b++ {
			ch.banks[ch.bankIndex(rank, b)].nextACT = cycle + int64(ch.T.RFC)
		}
		rk.refPtr = (rk.refPtr + ch.T.RowsPerREF) % ch.Geo.Rows
		ch.Stats.REFs++
		ch.Stats.RefreshBusyCycles += int64(ch.T.RFC) * int64(ch.Geo.Banks())
		return 0
	default:
		panic(fmt.Sprintf("dram: unknown command %v", cmd))
	}
}

// RefreshPointer returns the first row the rank's next REF covers in
// each of its banks; that REF covers RowsPerREF rows from there, wrapping
// at the bank's last row.
func (ch *Channel) RefreshPointer(rank int) int { return ch.ranks[rank].refPtr }
