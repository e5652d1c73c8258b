package core

import (
	"testing"

	"loopfrog/internal/isa"
)

func trainRegion(p *PackPredictor, id int64, iters int, iterSize uint64, stride int64, ivReg isa.Reg) [isa.NumRegs]uint64 {
	var regs [isa.NumRegs]uint64
	regs[ivReg] = 1000
	p.ObserveLiveIn(id, ivReg)
	p.ObserveWrite(id, ivReg)
	for i := 0; i < iters; i++ {
		p.TrainStride(id, &regs, nil)
		p.OnEpochRetired(id, iterSize, 1)
		regs[ivReg] += uint64(stride)
	}
	return regs
}

func TestPackDecideAfterTraining(t *testing.T) {
	cfg := DefaultPackConfig(1024)
	p := NewPackPredictor(cfg)
	regs := trainRegion(p, 7, 10, 100, 8, isa.X(5)) // 100-inst iterations, stride 8
	factor, predicted := p.Decide(7, &regs)
	// 100-inst epochs with a 1024 target: need factor 11 (capped at 32).
	if factor != 11 {
		t.Errorf("factor = %d, want 11 (ceil such that f*100 >= 1024)", factor)
	}
	wantIV := regs[isa.X(5)] + uint64(8*(factor-1))
	if predicted[isa.X(5)] != wantIV {
		t.Errorf("predicted IV = %d, want %d", predicted[isa.X(5)], wantIV)
	}
	// Non-IV registers are passed through unchanged.
	if predicted[isa.X(6)] != regs[isa.X(6)] {
		t.Error("non-IV register modified by prediction")
	}
	if p.Packed != 1 || p.MaxFactorSeen != factor {
		t.Errorf("stats: packed=%d maxFactor=%d", p.Packed, p.MaxFactorSeen)
	}
}

func TestPackNoPackingWhenEpochsAlreadyLarge(t *testing.T) {
	p := NewPackPredictor(DefaultPackConfig(1024))
	regs := trainRegion(p, 7, 10, 2000, 8, isa.X(5)) // epochs bigger than ROB
	factor, _ := p.Decide(7, &regs)
	if factor != 1 {
		t.Errorf("factor = %d, want 1 for 2000-inst epochs", factor)
	}
}

func TestPackRequiresTraining(t *testing.T) {
	p := NewPackPredictor(DefaultPackConfig(1024))
	var regs [isa.NumRegs]uint64
	p.ObserveLiveIn(7, isa.X(5))
	p.ObserveWrite(7, isa.X(5))
	p.TrainStride(7, &regs, nil)
	p.OnEpochRetired(7, 100, 1)
	if factor, _ := p.Decide(7, &regs); factor != 1 {
		t.Errorf("factor = %d before training completed, want 1", factor)
	}
}

func TestPackDisabled(t *testing.T) {
	cfg := DefaultPackConfig(1024)
	cfg.Enabled = false
	p := NewPackPredictor(cfg)
	regs := trainRegion(p, 7, 10, 100, 8, isa.X(5))
	if factor, _ := p.Decide(7, &regs); factor != 1 {
		t.Error("disabled predictor still packed")
	}
}

func TestPackUnpredictableIVBlocksPacking(t *testing.T) {
	cfg := DefaultPackConfig(1024)
	p := NewPackPredictor(cfg)
	var regs [isa.NumRegs]uint64
	iv := isa.X(5)
	p.ObserveLiveIn(7, iv)
	p.ObserveWrite(7, iv)
	// Erratic strides: confidence can never build.
	deltas := []uint64{3, 17, 5, 91, 2, 44, 13, 8, 77, 1}
	for _, d := range deltas {
		p.TrainStride(7, &regs, nil)
		p.OnEpochRetired(7, 100, 1)
		regs[iv] += d
	}
	if factor, _ := p.Decide(7, &regs); factor != 1 {
		t.Errorf("factor = %d with unpredictable IV, want 1", factor)
	}
}

func TestPackConfidencePenaltyAndRecovery(t *testing.T) {
	cfg := DefaultPackConfig(1024)
	p := NewPackPredictor(cfg)
	iv := isa.X(5)
	// Train confidently, then one erratic step, then retrain.
	regs := trainRegion(p, 8, 8, 100, 8, iv)
	if f, _ := p.Decide(8, &regs); f <= 1 {
		t.Fatal("not packing after clean training")
	}
	regs[iv] += 999 // conditional IV update breaks the stride once
	p.TrainStride(8, &regs, nil)
	regs[iv] += 8
	p.TrainStride(8, &regs, nil)
	if f, _ := p.Decide(8, &regs); f != 1 {
		t.Errorf("factor = %d immediately after stride break, want 1 (big penalty)", f)
	}
	for i := 0; i < 6; i++ {
		regs[iv] += 8
		p.TrainStride(8, &regs, nil)
	}
	if f, _ := p.Decide(8, &regs); f <= 1 {
		t.Error("confidence did not recover after retraining")
	}
}

func TestPackIVDetectionNeedsReadAndWrite(t *testing.T) {
	cfg := DefaultPackConfig(1024)
	p := NewPackPredictor(cfg)
	// x6 is written but never consumed across iterations (a body temporary):
	// it must not be treated as an IV even though it changes per detach.
	p.ObserveWrite(9, isa.X(6))
	p.ObserveLiveIn(9, isa.X(5))
	p.ObserveWrite(9, isa.X(5))
	var regs [isa.NumRegs]uint64
	for i := 0; i < 10; i++ {
		p.TrainStride(9, &regs, nil)
		p.OnEpochRetired(9, 50, 1)
		regs[isa.X(5)] += 4
		regs[isa.X(6)] += uint64(i * 13) // erratic, but not an IV
	}
	factor, predicted := p.Decide(9, &regs)
	if factor <= 1 {
		t.Fatalf("factor = %d, want packing (only x5 is an IV)", factor)
	}
	if predicted[isa.X(6)] != regs[isa.X(6)] {
		t.Error("non-IV erratic register was stride-advanced")
	}
	if predicted[isa.X(5)] != regs[isa.X(5)]+uint64(4*(factor-1)) {
		t.Error("IV not advanced correctly")
	}
}

func TestPackVerify(t *testing.T) {
	p := NewPackPredictor(DefaultPackConfig(1024))
	var a, b [isa.NumRegs]uint64
	if bad := p.Verify(&a, &b); len(bad) != 0 {
		t.Errorf("identical states reported mispredicts: %v", bad)
	}
	b[isa.X(3)] = 1
	b[isa.F(2)] = 2
	bad := p.Verify(&a, &b)
	if len(bad) != 2 || bad[0] != isa.X(3) || bad[1] != isa.F(2) {
		t.Errorf("Verify = %v, want [x3 f2]", bad)
	}
	if p.Mispredicts != 1 {
		t.Errorf("mispredicts = %d, want 1", p.Mispredicts)
	}
}

func TestPackEMATracksPhaseChange(t *testing.T) {
	cfg := DefaultPackConfig(1024)
	p := NewPackPredictor(cfg)
	// Phase 1: 50-inst iterations -> aggressive packing.
	regs := trainRegion(p, 11, 10, 50, 8, isa.X(5))
	f1, _ := p.Decide(11, &regs)
	if f1 <= 2 {
		t.Fatalf("phase-1 factor = %d, want aggressive packing of 50-inst iterations", f1)
	}
	// Phase 2: iterations grow to 600 insts. Each spawn uses the factor the
	// predictor chose, so the next sample is that many iterations later and
	// each retired epoch covers that many iterations.
	f := f1
	for i := 0; i < 12; i++ {
		regs[isa.X(5)] += uint64(8 * f)
		p.TrainStride(11, &regs, nil)
		p.OnEpochRetired(11, uint64(600*f), f)
		f, _ = p.Decide(11, &regs)
	}
	if f >= f1 {
		t.Errorf("factor did not shrink with larger iterations: %d -> %d", f1, f)
	}
	if f != 2 {
		t.Errorf("phase-2 factor = %d, want 2 (600*2 > 1024)", f)
	}
}

func TestPackMeanFactor(t *testing.T) {
	p := NewPackPredictor(DefaultPackConfig(1024))
	if p.MeanFactor() != 0 {
		t.Error("mean factor of no packs should be 0")
	}
	regs := trainRegion(p, 12, 10, 100, 8, isa.X(5))
	p.Decide(12, &regs)
	p.Decide(12, &regs)
	if got := p.MeanFactor(); got != 11 {
		t.Errorf("mean factor = %v, want 11", got)
	}
}

// TestPackCloneDoesNotTrainSource: the region-lookup cache must not survive
// Clone, or a checkpoint's predictor would keep writing its source's record
// of the region it last looked up.
func TestPackCloneDoesNotTrainSource(t *testing.T) {
	p := NewPackPredictor(DefaultPackConfig(1024))
	p.ObserveLiveIn(7, isa.X(5)) // leaves region 7 in the lookup cache
	c := p.Clone()
	c.ObserveWrite(7, isa.X(5))
	if got := p.IVs(7); len(got) != 0 {
		t.Errorf("source IVs = %v after training only the clone, want none", got)
	}
	if got := c.IVs(7); len(got) != 1 || got[0] != isa.X(5) {
		t.Errorf("clone IVs = %v, want [%v]", got, isa.X(5))
	}
	p.ObserveWrite(7, isa.X(6))
	if got := c.IVs(7); len(got) != 1 {
		t.Errorf("clone IVs = %v after training only the source, want one", got)
	}
}
