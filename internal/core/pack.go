package core

import "loopfrog/internal/isa"

// This file implements iteration packing (§4.3): three cooperating
// predictors trained on the first iterations of each parallel region.
//
//  1. An exponential-moving-average epoch-size estimator, used to pick a
//     packing factor P — the smallest P with P × S above the target size
//     (the paper targets the ROB size).
//  2. An induction-variable detector: a register is treated as an IV when it
//     is in both the cumulative read and write sets across iterations (it
//     changes, and the new value is consumed later).
//  3. A strided value predictor with a saturating confidence counter (small
//     reward on success, large penalty on failure; values reset when
//     confidence hits zero). Packing happens only when every IV register is
//     confidently predictable.

// PackConfig tunes iteration packing.
type PackConfig struct {
	// Enabled turns packing on (§6.5 evaluates both settings).
	Enabled bool
	// TargetSize is the desired packed-epoch size in instructions; the
	// paper uses the ROB size.
	TargetSize int
	// Alpha is the EMA coefficient for the size estimate, 0 < Alpha < 1:
	// S <- Alpha*S + (1-Alpha)*I.
	Alpha float64
	// TrainIters is how many detaches to observe before packing.
	TrainIters int
	// ConfMax caps the stride confidence counter; ConfThreshold is the
	// minimum confidence to predict; MissPenalty is subtracted on a
	// misprediction.
	ConfMax, ConfThreshold, MissPenalty int
	// MaxFactor caps the packing factor (the paper observes up to 25x).
	MaxFactor int
}

// DefaultPackConfig returns the configuration used for the headline runs.
func DefaultPackConfig(robSize int) PackConfig {
	return PackConfig{
		Enabled:       true,
		TargetSize:    robSize,
		Alpha:         0.75,
		TrainIters:    4,
		ConfMax:       7,
		ConfThreshold: 3,
		MissPenalty:   4,
		MaxFactor:     32,
	}
}

type stridePred struct {
	last   uint64
	stride int64
	conf   int
	seen   bool
}

type regionState struct {
	ema      float64
	emaValid bool
	samples  int
	lastRegs [isa.NumRegs]uint64
	haveRegs bool
	liveIn   [isa.NumRegs]bool
	writeSet [isa.NumRegs]bool
	preds    [isa.NumRegs]stridePred
	// lastFactor is the packing factor of the previous spawn: the number of
	// iterations between the previous training sample and the next one.
	lastFactor int
}

// PackPredictor holds per-region packing state, keyed by region ID (the
// continuation address).
type PackPredictor struct {
	cfg     PackConfig
	regions map[int64]*regionState
	// lastID/lastR cache the most recent region lookup: the commit stream
	// observes every register of a region's instructions one by one.
	lastID int64
	lastR  *regionState

	// Stats.
	Packed        uint64
	FactorSum     uint64
	MaxFactorSeen int
	Mispredicts   uint64
}

// NewPackPredictor returns an empty predictor.
func NewPackPredictor(cfg PackConfig) *PackPredictor {
	return &PackPredictor{cfg: cfg, regions: make(map[int64]*regionState)}
}

func (p *PackPredictor) region(id int64) *regionState {
	if p.lastR != nil && p.lastID == id {
		return p.lastR
	}
	r := p.regions[id]
	if r == nil {
		r = &regionState{}
		p.regions[id] = r
	}
	p.lastID, p.lastR = id, r
	return r
}

// ObserveLiveIn records that a register was consumed before being written
// within an iteration — i.e. its value crossed an iteration boundary. The
// engine derives this from the committed instruction stream of each epoch
// (each epoch is a contiguous program-order slice).
func (p *PackPredictor) ObserveLiveIn(id int64, reg isa.Reg) {
	if reg != isa.X0 {
		p.region(id).liveIn[reg] = true
	}
}

// ObserveWrite records that a register is written inside the region.
func (p *PackPredictor) ObserveWrite(id int64, reg isa.Reg) {
	if reg != isa.X0 {
		p.region(id).writeSet[reg] = true
	}
}

// TrainStride trains the per-register strided value predictor with the
// register state at a spawn-point detach of region id. Spawns happen in
// epoch order, so consecutive samples are `iters` iterations apart, where
// iters is the packing factor of the previous spawn; the learned stride is
// always per-iteration.
func (p *PackPredictor) TrainStride(id int64, regs *[isa.NumRegs]uint64, resolved *[isa.NumRegs]bool) {
	r := p.region(id)
	iters := int64(r.lastFactor)
	if iters < 1 {
		iters = 1
	}
	if r.haveRegs {
		for i := 0; i < isa.NumRegs; i++ {
			if resolved != nil && !resolved[i] {
				// Unknown value: restart this register's training rather
				// than learn from garbage.
				r.preds[i].seen = false
				continue
			}
			sp := &r.preds[i]
			delta := int64(regs[i] - r.lastRegs[i])
			if !sp.seen {
				if delta%iters == 0 {
					sp.last, sp.stride, sp.seen = regs[i], delta/iters, true
				}
				continue
			}
			if delta == sp.stride*iters {
				if sp.conf < p.cfg.ConfMax {
					sp.conf++
				}
			} else {
				sp.conf -= p.cfg.MissPenalty
				if sp.conf <= 0 {
					sp.conf = 0
					if delta%iters == 0 {
						sp.stride = delta / iters
					} else {
						sp.seen = false
					}
				}
			}
			sp.last = regs[i]
		}
	}
	r.lastRegs = *regs
	r.haveRegs = true
	r.samples++
}

// OnEpochRetired trains the EMA epoch-size estimate with a retired epoch
// that committed `insts` instructions covering `iters` loop iterations:
// S <- Alpha*S + (1-Alpha)*I on the per-iteration size (§4.3).
func (p *PackPredictor) OnEpochRetired(id int64, insts uint64, iters int) {
	if iters < 1 {
		iters = 1
	}
	size := float64(insts) / float64(iters)
	if size <= 0 {
		return
	}
	r := p.region(id)
	if r.emaValid {
		r.ema = p.cfg.Alpha*r.ema + (1-p.cfg.Alpha)*size
	} else {
		r.ema = size
		r.emaValid = true
	}
}

// ivRegisters returns the registers currently believed to be induction
// variables: written inside the region and consumed across an iteration
// boundary ("in both the read and write sets and the new value is consumed
// in a later iteration", §4.3).
func (r *regionState) ivRegisters() []isa.Reg {
	var ivs []isa.Reg
	for i := 1; i < isa.NumRegs; i++ {
		if r.liveIn[i] && r.writeSet[i] {
			ivs = append(ivs, isa.Reg(i))
		}
	}
	return ivs
}

// Decide returns the packing factor for the next spawn of region id and the
// predicted register starting state for the successor, advanced by
// (factor-1) iterations from the given detach-point registers. factor == 1
// means no packing (spawn with the actual registers). Packing requires the
// region to be trained, the epoch-size estimate to be below target, and all
// IV registers to be confidently strided.
func (p *PackPredictor) Decide(id int64, regs *[isa.NumRegs]uint64) (factor int, predicted [isa.NumRegs]uint64) {
	predicted = *regs
	if !p.cfg.Enabled {
		return 1, predicted
	}
	r := p.region(id)
	r.lastFactor = 1
	if r.samples < p.cfg.TrainIters || !r.emaValid || r.ema <= 0 {
		return 1, predicted
	}
	f := 1
	for float64(f)*r.ema < float64(p.cfg.TargetSize) && f < p.cfg.MaxFactor {
		f++
	}
	if f <= 1 {
		return 1, predicted
	}
	ivs := r.ivRegisters()
	for _, reg := range ivs {
		sp := &r.preds[reg]
		if sp.conf < p.cfg.ConfThreshold {
			return 1, predicted
		}
	}
	for _, reg := range ivs {
		sp := &r.preds[reg]
		predicted[reg] = regs[reg] + uint64(sp.stride*int64(f-1))
	}
	r.lastFactor = f
	p.Packed++
	p.FactorSum += uint64(f)
	if f > p.MaxFactorSeen {
		p.MaxFactorSeen = f
	}
	return f, predicted
}

// IVs returns the registers the predictor currently believes are induction
// variables for the region (read and written across iterations).
func (p *PackPredictor) IVs(id int64) []isa.Reg {
	r := p.regions[id]
	if r == nil {
		return nil
	}
	return r.ivRegisters()
}

// Verify compares the prediction handed to a successor against the actual
// register state the parent reached at the corresponding detach. It returns
// the list of mispredicted registers (empty when the prediction held).
func (p *PackPredictor) Verify(predicted, actual *[isa.NumRegs]uint64) []isa.Reg {
	var bad []isa.Reg
	for i := 1; i < isa.NumRegs; i++ {
		if predicted[i] != actual[i] {
			bad = append(bad, isa.Reg(i))
		}
	}
	if len(bad) > 0 {
		p.Mispredicts++
	}
	return bad
}

// Clone returns a deep copy sharing no mutable state with p: per-region
// training records are copied (they are flat value structs), so the clone and
// the original can be driven by independent machines concurrently.
// Checkpoints carry cloned predictors as warm LoopFrog-engine state for
// sampled windows.
func (p *PackPredictor) Clone() *PackPredictor {
	c := *p
	c.lastR = nil // it points into p's records
	c.regions = make(map[int64]*regionState, len(p.regions))
	for id, r := range p.regions {
		cp := *r
		c.regions[id] = &cp
	}
	return &c
}

// MeanFactor returns the average packing factor over packed spawns.
func (p *PackPredictor) MeanFactor() float64 {
	if p.Packed == 0 {
		return 0
	}
	return float64(p.FactorSum) / float64(p.Packed)
}
