package faultmodel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ecc"
	"repro/internal/stats"
)

// Flip identifies one observed bit flip: a data bit in a row whose value
// no longer matches what was written.
type Flip struct {
	Bank, Row, Bit int
}

// cell is one vulnerable DRAM cell. bit indexes the row's raw bit array:
// [0, RowBits) are data bits; with on-die ECC, [RowBits, RowBits+8·words)
// are parity bits.
type cell struct {
	bit       int
	threshold float64 // hammers to 50% flip probability under best pattern
	charged   byte    // stored value from which the cell can discharge
	affin     [NumPatterns]float32
}

// effectiveThreshold returns the cell's threshold under pattern p.
func (c *cell) effectiveThreshold(p Pattern) float64 {
	a := float64(c.affin[p])
	if a <= 0 {
		return math.Inf(1)
	}
	return c.threshold / a
}

// Chip is one simulated DRAM chip with RowHammer protection disabled, as
// the paper tests them (Algorithm 1): WriteAll → BeginTest → Activate
// aggressors → TestFlips (or ObservedFlips per row). Flips are sampled
// probabilistically per test and do not persist, matching line 16
// ("restore bit flips").
// Hammering through a memory controller, where refreshes interleave with
// activations, is accounted outside the chip (internal/attack's Observer)
// against the structure and thresholds accounting.go exposes.
//
// A Chip is not safe for concurrent use.
type Chip struct {
	cfg       Config
	beta      float64
	wordlines int
	rawBits   int // raw bits per row (data + on-die parity)
	eccWords  int // 128-bit ECC words per row (0 without on-die ECC)

	siteLambda float64 // expected vulnerable sites per row

	// cells holds each generated row's vulnerable cells, keyed by
	// bank*Rows+row, the row's smallest threshold first; a row without
	// cells stores nil. rowCells generates a row into rowBuf and stores
	// an exact-size copy. NewChip sizes rowBuf for 16 cells, more than
	// any row of an attack or TRR study's chip holds.
	cells  map[int][]cell
	rowBuf []cell

	weakKey  int // row key holding the forced weakest cell
	weakCell cell
	weakMate cell // same-word companion, for HCsecond

	parityByByte map[byte][]byte // cached SEC128 parity bits per row byte

	// Dynamic state: the written pattern, the test's sampling nonce, and
	// the test's activations in the order made. A row's damage is summed
	// from acts when the row is read.
	pattern Pattern
	nonce   uint64
	acts    []act
}

// act is one Activate call of the current test.
type act struct{ bank, wl, times int }

// NewChip constructs a chip from cfg. The vulnerable-cell population is
// generated lazily per row, deterministically from cfg.Seed.
func NewChip(cfg Config) (*Chip, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Chip{
		cfg:          cfg,
		beta:         cfg.beta(),
		wordlines:    cfg.Rows,
		rawBits:      cfg.RowBits,
		cells:        make(map[int][]cell),
		rowBuf:       make([]cell, 0, 16),
		parityByByte: make(map[byte][]byte),
		pattern:      cfg.WorstPattern,
	}
	if cfg.PairedWordlines {
		c.wordlines = cfg.Rows / 2
	}
	if cfg.OnDieECC {
		c.eccWords = cfg.RowBits / 128
		c.rawBits = cfg.RowBits + 8*c.eccWords
	}

	// Expected vulnerable cells chip-wide with T ≤ cutoff, per the power
	// law E[#flips](H) = (H/HCFirst)^β, divided over rows and deflated by
	// the mean cluster size so clustering does not inflate the total.
	total := math.Pow(thresholdCutoff/cfg.HCFirst, c.beta)
	meanCluster := 1.0
	p := cfg.ClusterP
	for i, f := 0, p; i < 3; i++ {
		meanCluster += f
		f *= p
	}
	c.siteLambda = total / (float64(cfg.Banks) * float64(cfg.Rows) * meanCluster)
	if maxLambda := float64(c.rawBits) / 64; c.siteLambda > maxLambda {
		c.siteLambda = maxLambda
	}

	// Force the weakest cell so the chip's HCfirst is exactly cfg.HCFirst
	// (Table 4 calibration), with a same-word companion for HCsecond.
	rng := stats.NewRNG(cfg.Seed ^ 0x5eed1e55)
	weakBank := rng.Intn(cfg.Banks)
	weakRow := 2 * rng.Intn(cfg.Rows/2) // even row: the worst pattern's base byte
	if weakRow == 0 {
		weakRow = 2
	}
	c.weakKey = weakBank*cfg.Rows + weakRow
	wordStart := 64 * rng.Intn(cfg.RowBits/64)
	bit := wordStart + rng.Intn(64)
	c.weakCell = c.makeCell(rng, weakRow, bit, cfg.HCFirst, cfg.WorstPattern)
	mateBit := wordStart + rng.Intn(64)
	for mateBit == bit {
		mateBit = wordStart + rng.Intn(64)
	}
	// With on-die ECC a single flip is corrected, so the *observed*
	// HCfirst is the companion cell's threshold: keep it at ≈HCFirst so
	// the chip's measured value matches its calibration (the paper's
	// LPDDR4 numbers are likewise post-ECC observations). Without ECC the
	// companion models the word-level clustering of Figures 7/9.
	mateT := cfg.HCFirst * rng.Range(clusterLo, clusterHi)
	if cfg.OnDieECC {
		mateT = cfg.HCFirst * rng.Range(1.02, 1.12)
	}
	c.weakMate = c.makeCell(rng, weakRow, mateBit, mateT, cfg.WorstPattern)
	return c, nil
}

// Config returns the chip's configuration (with defaults applied).
func (c *Chip) Config() Config { return c.cfg }

// Beta returns the realized power-law exponent of the threshold
// distribution (the log-log slope of Observation 4).
func (c *Chip) Beta() float64 { return c.beta }

// Rows returns logical rows per bank; Banks the bank count.
func (c *Chip) Rows() int  { return c.cfg.Rows }
func (c *Chip) Banks() int { return c.cfg.Banks }

// RowBits returns data bits per row.
func (c *Chip) RowBits() int { return c.cfg.RowBits }

// Wordlines returns the number of physical wordlines per bank (half the
// row count for paired-wordline chips).
func (c *Chip) Wordlines() int { return c.wordlines }

// wordlineOf maps a logical row to its physical wordline.
func (c *Chip) wordlineOf(row int) int {
	if c.cfg.PairedWordlines {
		return row >> 1
	}
	return row
}

// rowsPerWordline returns k: wordline wl holds logical rows
// [wl·k, (wl+1)·k), with k = 2 on paired-wordline chips and 1 otherwise.
func (c *Chip) rowsPerWordline() int { return c.cfg.Rows / c.wordlines }

// AggressorsFor returns one logical row on each wordline physically
// adjacent to the victim's wordline, i.e. the rows a double-sided hammer
// must activate. ok is false at the array edges.
func (c *Chip) AggressorsFor(victim int) (lo, hi int, ok bool) {
	wl := c.wordlineOf(victim)
	if wl <= 0 || wl >= c.wordlines-1 {
		return 0, 0, false
	}
	k := c.rowsPerWordline()
	return (wl - 1) * k, (wl + 1) * k, true
}

// BlastRadius returns the maximum wordline distance at which this chip's
// aggressors disturb victims.
func (c *Chip) BlastRadius() int {
	switch {
	case c.cfg.W5 > 0:
		return 5
	case c.cfg.W3 > 0:
		return 3
	default:
		return 1
	}
}

func (c *Chip) couplingWeight(d int) float64 {
	switch d {
	case 1:
		return w1
	case 3:
		return c.cfg.W3
	case 5:
		return c.cfg.W5
	default:
		return 0
	}
}

// --- cell population -----------------------------------------------------

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hammerRand returns a deterministic uniform [0,1) value for a
// (cell, nonce) pair, so flips are reproducible within a test iteration.
func (c *Chip) hammerRand(bank, row, bit int, nonce uint64) float64 {
	h := c.cfg.Seed
	h = mix64(h ^ uint64(bank)<<40 ^ uint64(row)<<16 ^ uint64(bit))
	h = mix64(h ^ nonce)
	return float64(h>>11) / (1 << 53)
}

// makeCell builds one vulnerable cell with the given preferred pattern.
func (c *Chip) makeCell(rng *stats.RNG, row, bit int, threshold float64, pref Pattern) cell {
	cl := cell{bit: bit, threshold: threshold}
	cl.charged = c.storedBitUnder(pref, row, bit)
	for p := Pattern(0); p < NumPatterns; p++ {
		if p == pref {
			cl.affin[p] = 1
		} else {
			cl.affin[p] = float32(rng.Range(0.25, 0.95))
		}
	}
	return cl
}

// rowCells returns (generating on first use) the vulnerable cells of a
// row, the one with the smallest threshold first.
func (c *Chip) rowCells(bank, row int) []cell {
	key := bank*c.cfg.Rows + row
	if cs, ok := c.cells[key]; ok {
		return cs
	}
	rng := stats.NewRNG(mix64(c.cfg.Seed ^ uint64(key)<<1 ^ 0xc0ffee))
	n := rng.Poisson(c.siteLambda)
	cs := c.rowBuf[:0]
	for i := 0; i < n; i++ {
		bit := rng.Intn(c.rawBits)
		// T = cutoff·U^(1/β): inverse CDF of the power law, clamped just
		// above HCFirst so the forced weakest cell stays unique.
		t := thresholdCutoff * math.Pow(rng.Float64(), 1/c.beta)
		if t < c.cfg.HCFirst*1.02 {
			t = c.cfg.HCFirst * 1.02
		}
		pref := c.cfg.WorstPattern
		if !rng.Bernoulli(prefBias) {
			pref = Pattern(rng.Intn(int(NumPatterns)))
		}
		cs = append(cs, c.makeCell(rng, row, bit, t, pref))
		// Grow a same-word cluster (only meaningful for data bits),
		// capped at four cells per word as Observation 8 reports. The
		// second cell sits clusterLo–clusterHi above the first; deeper
		// cells cluster tightly above the second, which is what makes
		// Figure 9's 2→3 multiplier smaller than its 1→2 multiplier
		// (Observation 13's diminishing returns).
		if bit < c.cfg.RowBits {
			wordStart := bit - bit%64
			prev := t
			contP := c.cfg.ClusterP
			for size := 1; size < 4 && rng.Bernoulli(contP); size++ {
				nb := wordStart + rng.Intn(64)
				if size == 1 {
					prev *= rng.Range(clusterLo, clusterHi)
				} else {
					prev *= rng.Range(1.05, 1.5)
				}
				cs = append(cs, c.makeCell(rng, row, nb, prev, pref))
				contP = c.cfg.ClusterP + 0.25
			}
		}
	}
	if key == c.weakKey {
		cs = append(cs, c.weakCell, c.weakMate)
	}
	c.rowBuf = cs
	var stored []cell
	if len(cs) > 0 {
		lowest := 0
		for i := range cs {
			if cs[i].threshold < cs[lowest].threshold {
				lowest = i
			}
		}
		cs[0], cs[lowest] = cs[lowest], cs[0]
		stored = make([]cell, len(cs))
		copy(stored, cs)
	}
	c.cells[key] = stored
	return stored
}

// storedBitUnder returns the value pattern p stores in a row's raw bit.
func (c *Chip) storedBitUnder(p Pattern, row, bit int) byte {
	if bit < c.cfg.RowBits {
		return p.Bit(row, bit)
	}
	// On-die ECC parity region: parity bit j of some word; all words of a
	// uniform-data row share the same parity bits.
	j := (bit - c.cfg.RowBits) % 8
	return c.parityBits(p.RowByte(row))[j]
}

// parityBits returns the SEC128 parity for a 128-bit word of repeated b.
func (c *Chip) parityBits(b byte) []byte {
	if par, ok := c.parityByByte[b]; ok {
		return par
	}
	data := make([]byte, 128)
	for i := range data {
		data[i] = (b >> (uint(i) & 7)) & 1
	}
	par, err := ecc.SEC128.ParityFor(data)
	if err != nil {
		panic(fmt.Sprintf("faultmodel: SEC128 parity: %v", err))
	}
	c.parityByByte[b] = par
	return par
}

// eligible reports whether the cell can flip under pattern p in its row:
// the stored value must be the cell's charged state.
func (c *Chip) eligible(cl *cell, p Pattern, row int) bool {
	return c.storedBitUnder(p, row, cl.bit) == cl.charged
}

// flipProbability implements P = 1 − 2^−(E/T)^γ.
func (c *Chip) flipProbability(effHammers, threshold float64) float64 {
	if effHammers <= 0 {
		return 0
	}
	r := effHammers / threshold
	if r < 0.5 {
		return 0 // below 5·10⁻⁸ probability; treat as impossible
	}
	return 1 - math.Exp2(-math.Pow(r, gamma))
}

// --- dynamic state ---------------------------------------------------------

// WriteAll stores pattern p into every cell and clears all accumulated
// damage (Algorithm 1 lines 2–3).
func (c *Chip) WriteAll(p Pattern) {
	c.pattern = p
	c.acts = c.acts[:0]
}

// Pattern returns the currently written data pattern.
func (c *Chip) Pattern() Pattern { return c.pattern }

// BeginTest starts one core-loop iteration of Algorithm 1: refresh is
// disabled, the victim is freshly refreshed, and all previously
// accumulated hammers are gone. nonce seeds this iteration's sampling so
// repeated iterations model run-to-run variation (Section 5.6).
func (c *Chip) BeginTest(nonce uint64) {
	c.nonce = nonce
	c.acts = c.acts[:0]
}

// Activate issues times activations to (bank, row): the row's own
// wordline is refreshed (and becomes immune for the rest of the test) and
// neighbouring wordlines at odd distances accumulate coupling damage.
func (c *Chip) Activate(bank, row, times int) error {
	if bank < 0 || bank >= c.cfg.Banks || row < 0 || row >= c.cfg.Rows {
		return fmt.Errorf("faultmodel: activate out of range: bank %d row %d", bank, row)
	}
	if times > 0 {
		c.acts = append(c.acts, act{bank: bank, wl: c.wordlineOf(row), times: times})
	}
	return nil
}

// damage returns the effective hammers the test's activations put on
// wordline wl of a bank, summed in activation order, and whether the test
// activated wl itself, which restores its charge.
func (c *Chip) damage(bank, wl int) (e float64, activated bool) {
	for _, a := range c.acts {
		if a.bank != bank {
			continue
		}
		d := a.wl - wl
		if d == 0 {
			return 0, true
		}
		if d < 0 {
			d = -d
		}
		if w := c.couplingWeight(d); w != 0 {
			e += float64(a.times) * w
		}
	}
	return e, false
}

// rawFlips samples this test's raw (pre-ECC) cell flips for a row.
//
// A row whose damage is below half of its smallest raw threshold flips
// nothing, and rawFlips returns before scanning its cells: an effective
// threshold is the raw one divided by an affinity of at most 1, so it is
// never smaller, and correctly rounded division is monotone, so every
// cell's e/threshold in flipProbability is below 0.5 as well. NewChip
// puts no raw threshold below HCFirst, so checking against HCFirst
// first prunes most rows before their cells are looked up or generated.
// hammerRand is a stateless hash, so the cells a prune skips move no
// other cell's draw.
func (c *Chip) rawFlips(bank, row int) []int {
	e, activated := c.damage(bank, c.wordlineOf(row))
	if activated || e <= 0 {
		return nil // aggressor rows cannot fail (Section 5.4)
	}
	if e/c.cfg.HCFirst < 0.5 {
		return nil
	}
	cells := c.rowCells(bank, row)
	if len(cells) == 0 || e/cells[0].threshold < 0.5 {
		return nil
	}
	var bits []int
	for i := range cells {
		cl := &cells[i]
		if !c.eligible(cl, c.pattern, row) {
			continue
		}
		p := c.flipProbability(e, cl.effectiveThreshold(c.pattern))
		if p <= 0 {
			continue
		}
		if c.hammerRand(bank, row, cl.bit, c.nonce) < p {
			bits = append(bits, cl.bit)
		}
	}
	sort.Ints(bits)
	return bits
}

// TestFlips returns the flips the current test caused in a bank: the
// observed flips of every row on the wordlines its activations can
// disturb, from the lowest activated wordline minus BlastRadius to the
// highest plus BlastRadius, in row order.
func (c *Chip) TestFlips(bank int) []Flip {
	lo, hi := c.wordlines, -1
	for _, a := range c.acts {
		if a.bank == bank {
			lo, hi = min(lo, a.wl), max(hi, a.wl)
		}
	}
	if hi < 0 {
		return nil
	}
	r := c.BlastRadius()
	lo, hi = max(lo-r, 0), min(hi+r, c.wordlines-1)
	k := c.rowsPerWordline()
	var flips []Flip
	for row := lo * k; row < (hi+1)*k; row++ {
		flips = append(flips, c.ObservedFlips(bank, row)...)
	}
	return flips
}

// ObservedFlips returns the bit flips visible to the system in a row for
// the current test: raw cell flips filtered through on-die ECC when the
// chip has it. Bit indices refer to the row's data bits.
func (c *Chip) ObservedFlips(bank, row int) []Flip {
	return c.ObservedFromRaw(bank, row, c.rawFlips(bank, row))
}

// ObservedFromRaw filters a row's raw cell flips (raw-bit indices; on-die
// ECC parity bits included, in [RowBits, RowBits+8·words)) through the
// chip's ECC and returns the data flips the system observes. Without
// on-die ECC the data bits pass through unchanged. External hammer
// accountants use it to report post-correction escaped flips alongside
// the raw counts.
func (c *Chip) ObservedFromRaw(bank, row int, raw []int) []Flip {
	if len(raw) == 0 {
		return nil
	}
	if !c.cfg.OnDieECC {
		fs := make([]Flip, 0, len(raw))
		for _, b := range raw {
			if b < c.cfg.RowBits {
				fs = append(fs, Flip{Bank: bank, Row: row, Bit: b})
			}
		}
		return fs
	}
	return c.decodeThroughECC(bank, row, raw)
}

// decodeThroughECC groups raw flips into 128-bit ECC words, runs the real
// SEC decoder on each, and reports the post-correction data flips.
func (c *Chip) decodeThroughECC(bank, row int, raw []int) []Flip {
	byWord := make(map[int][]int)
	for _, b := range raw {
		var word, cwBit int
		if b < c.cfg.RowBits {
			word = b / 128
			cwBit = ecc.SEC128.DataPosition(b % 128)
		} else {
			j := b - c.cfg.RowBits
			word = j / 8
			cwBit = ecc.SEC128.ParityPosition(j % 8)
		}
		byWord[word] = append(byWord[word], cwBit)
	}
	var flips []Flip
	for word, cwBits := range byWord {
		dataFlips, _, err := ecc.SEC128.DecodeFlips(cwBits)
		if err != nil {
			panic(fmt.Sprintf("faultmodel: on-die ECC decode: %v", err))
		}
		for _, di := range dataFlips {
			flips = append(flips, Flip{Bank: bank, Row: row, Bit: word*128 + di})
		}
	}
	sort.Slice(flips, func(i, j int) bool { return flips[i].Bit < flips[j].Bit })
	return flips
}

// --- analytic ground truth ------------------------------------------------

// CellInfo describes one vulnerable cell for analytic queries.
type CellInfo struct {
	Bank, Row, Bit int     // Bit indexes the row's raw bit array
	Threshold      float64 // hammers, under the cell's preferred pattern
	Parity         bool    // true for on-die ECC parity cells
}

// ForEachCell instantiates the full vulnerable-cell population and calls
// fn for every cell. Intended for analysis and tests, not the hot path.
func (c *Chip) ForEachCell(fn func(CellInfo)) {
	for bank := 0; bank < c.cfg.Banks; bank++ {
		for row := 0; row < c.cfg.Rows; row++ {
			for _, cl := range c.rowCells(bank, row) {
				fn(CellInfo{
					Bank: bank, Row: row, Bit: cl.bit,
					Threshold: cl.threshold,
					Parity:    cl.bit >= c.cfg.RowBits,
				})
			}
		}
	}
}

// WeakestCell returns the chip's forced weakest cell — the one whose
// threshold equals the configured HCFirst. Attack demos use it as the
// profiled target.
func (c *Chip) WeakestCell() CellInfo {
	return CellInfo{
		Bank:      c.weakKey / c.cfg.Rows,
		Row:       c.weakKey % c.cfg.Rows,
		Bit:       c.weakCell.bit,
		Threshold: c.weakCell.threshold,
	}
}

// MinThreshold returns the smallest effective threshold over all cells
// eligible under pattern p, and whether any such cell exists. For chips
// with on-die ECC this is the raw (pre-correction) threshold.
func (c *Chip) MinThreshold(p Pattern) (float64, bool) {
	best := math.Inf(1)
	found := false
	for bank := 0; bank < c.cfg.Banks; bank++ {
		for row := 0; row < c.cfg.Rows; row++ {
			cells := c.rowCells(bank, row)
			for i := range cells {
				cl := &cells[i]
				if !c.eligible(cl, p, row) {
					continue
				}
				if t := cl.effectiveThreshold(p); t < best {
					best = t
					found = true
				}
			}
		}
	}
	return best, found
}

// WordThresholds returns, for every 64-bit data word containing at least
// n eligible vulnerable cells under pattern p, the n-th smallest
// effective threshold. Used by the Figure 9 ECC analysis (HCfirst,
// HCsecond, HCthird at 64-bit granularity).
func (c *Chip) WordThresholds(p Pattern, n int) []float64 {
	type wordKey struct{ bank, row, word int }
	byWord := make(map[wordKey][]float64)
	for bank := 0; bank < c.cfg.Banks; bank++ {
		for row := 0; row < c.cfg.Rows; row++ {
			cells := c.rowCells(bank, row)
			for i := range cells {
				cl := &cells[i]
				if cl.bit >= c.cfg.RowBits || !c.eligible(cl, p, row) {
					continue
				}
				k := wordKey{bank, row, cl.bit / 64}
				byWord[k] = append(byWord[k], cl.effectiveThreshold(p))
			}
		}
	}
	var out []float64
	for _, ts := range byWord {
		if len(ts) < n {
			continue
		}
		sort.Float64s(ts)
		out = append(out, ts[n-1])
	}
	sort.Float64s(out)
	return out
}
