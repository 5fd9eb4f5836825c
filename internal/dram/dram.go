// Package dram models DRAM devices at the level the paper needs: JEDEC
// command/timing behaviour for cycle-accurate simulation (Section 6) and
// per-type activation timings for hammer-rate math (Section 4.3).
//
// The model follows the organization of Section 2: a channel owns ranks,
// ranks own bank groups and banks, banks own rows. One Channel value is a
// complete timing-accurate state machine: the memory controller asks
// ReadyAt (when a command could first issue), CanIssue and Issue, and the
// channel enforces every intra-bank, intra-group, rank and data-bus
// constraint.
package dram

import "fmt"

// Type identifies a DRAM standard characterized by the paper.
type Type int

const (
	DDR3 Type = iota
	DDR4
	LPDDR4
)

func (t Type) String() string {
	switch t {
	case DDR3:
		return "DDR3"
	case DDR4:
		return "DDR4"
	case LPDDR4:
		return "LPDDR4"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Command is a DRAM bus command.
type Command int

const (
	CmdACT Command = iota // activate (open) a row
	CmdPRE                // precharge (close) the bank's open row
	CmdRD                 // column read burst
	CmdWR                 // column write burst
	CmdREF                // all-bank auto refresh
)

func (c Command) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	default:
		return fmt.Sprintf("Command(%d)", int(c))
	}
}

// Geometry describes one channel's structure. The paper's simulation
// configuration (Table 6) is one channel, one rank, 4 bank groups × 4
// banks, 16k rows per bank.
type Geometry struct {
	Ranks         int
	BankGroups    int
	BanksPerGroup int
	Rows          int // rows per bank
	Columns       int // cache-line-sized columns per row
	LineBytes     int // bytes per column burst (cache line)
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.Ranks <= 0:
		return fmt.Errorf("dram: ranks must be positive, got %d", g.Ranks)
	case g.BankGroups <= 0:
		return fmt.Errorf("dram: bank groups must be positive, got %d", g.BankGroups)
	case g.BanksPerGroup <= 0:
		return fmt.Errorf("dram: banks per group must be positive, got %d", g.BanksPerGroup)
	case g.Rows <= 0:
		return fmt.Errorf("dram: rows must be positive, got %d", g.Rows)
	case g.Columns <= 0:
		return fmt.Errorf("dram: columns must be positive, got %d", g.Columns)
	case g.LineBytes <= 0:
		return fmt.Errorf("dram: line bytes must be positive, got %d", g.LineBytes)
	}
	return nil
}

// Banks returns the total number of banks per rank.
func (g Geometry) Banks() int { return g.BankGroups * g.BanksPerGroup }

// TotalBanks returns the number of banks across all ranks.
func (g Geometry) TotalBanks() int { return g.Ranks * g.Banks() }

// RowBytes returns the row-buffer size in bytes.
func (g Geometry) RowBytes() int { return g.Columns * g.LineBytes }

// CapacityBytes returns the channel capacity in bytes.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.Ranks) * int64(g.Banks()) * int64(g.Rows) * int64(g.RowBytes())
}

// Table6Geometry is the simulated system configuration of Table 6:
// 1 channel, 1 rank, 4 bank groups × 4 banks, 16k rows per bank, with an
// 8 KiB row buffer (128 cache lines of 64 B).
func Table6Geometry() Geometry {
	return Geometry{
		Ranks:         1,
		BankGroups:    4,
		BanksPerGroup: 4,
		Rows:          16 * 1024,
		Columns:       128,
		LineBytes:     64,
	}
}
