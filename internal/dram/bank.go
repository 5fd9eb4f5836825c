package dram

import "fmt"

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

// CanIssue reports whether cmd targeting (rank, bank, row) may legally
// issue at the given cycle. For REF, bank and row are ignored.
func (ch *Channel) CanIssue(cmd Command, rank, bank, row int, cycle int64) bool {
	rk := &ch.ranks[rank]
	switch cmd {
	case CmdACT:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		if b.openRow != -1 || cycle < b.nextACT {
			return false
		}
		g := ch.bankGroupOf(bank)
		if cycle < rk.lastACTBG[g]+int64(ch.T.RRDL) {
			return false
		}
		if cycle < rk.lastACT+int64(ch.T.RRDS) {
			return false
		}
		// tFAW: at most four ACTs in any FAW window.
		oldest := rk.faw[rk.fawIdx]
		return cycle >= oldest+int64(ch.T.FAW)
	case CmdPRE:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		return b.openRow != -1 && cycle >= b.nextPRE
	case CmdRD:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		if b.openRow == -1 || b.openRow != row || cycle < b.nextRD {
			return false
		}
		g := ch.bankGroupOf(bank)
		if cycle < rk.lastCASBG[g]+int64(ch.T.CCDL) {
			return false
		}
		if cycle < rk.lastCAS+int64(ch.T.CCDS) {
			return false
		}
		// Write-to-read turnaround.
		if cycle < rk.lastWREnd[g]+int64(ch.T.WTRL) {
			return false
		}
		if cycle < rk.lastWREndR+int64(ch.T.WTRS) {
			return false
		}
		// Data bus must be free when the burst starts.
		return cycle+int64(ch.T.CL) >= ch.busBusyUntil
	case CmdWR:
		b := &ch.banks[ch.bankIndex(rank, bank)]
		if b.openRow == -1 || b.openRow != row || cycle < b.nextWR {
			return false
		}
		g := ch.bankGroupOf(bank)
		if cycle < rk.lastCASBG[g]+int64(ch.T.CCDL) {
			return false
		}
		if cycle < rk.lastCAS+int64(ch.T.CCDS) {
			return false
		}
		// Read-to-write turnaround.
		if cycle < rk.lastRD+int64(ch.T.RTW) {
			return false
		}
		return cycle+int64(ch.T.CWL) >= ch.busBusyUntil
	case CmdREF:
		for b := 0; b < ch.Geo.Banks(); b++ {
			bs := &ch.banks[ch.bankIndex(rank, b)]
			if bs.openRow != -1 || cycle < bs.nextACT {
				return false
			}
		}
		return true
	default:
		return false
	}
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

// BankTimes exposes one bank's per-bank timing horizon: its open row (-1
// when precharged) and the earliest cycles at which an ACT, PRE, RD, or WR
// targeting it could legally issue, ignoring rank-scoped constraints
// (tRRD/tFAW/tCCD/turnaround/bus). Rank constraints only delay commands
// further, so these values are safe lower bounds for an event-driven
// scheduler asking "when could this bank possibly accept a command?".
func (ch *Channel) BankTimes(rank, bank int) (openRow int, nextACT, nextPRE, nextRD, nextWR int64) {
	b := &ch.banks[ch.bankIndex(rank, bank)]
	return b.openRow, b.nextACT, b.nextPRE, b.nextRD, b.nextWR
}
