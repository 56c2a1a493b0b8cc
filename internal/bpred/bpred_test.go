package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGHRPush(t *testing.T) {
	var g GHR
	g = g.Push(true).Push(false).Push(true)
	if g != 0b101 {
		t.Errorf("ghr = %b, want 101", g)
	}
}

func TestGHRSetLast(t *testing.T) {
	g := GHR(0b100)
	if g.SetLast(true) != 0b101 {
		t.Error("SetLast(true) wrong")
	}
	if GHR(0b101).SetLast(false) != 0b100 {
		t.Error("SetLast(false) wrong")
	}
}

// train runs a predictor on a repeating pattern and returns the accuracy
// over the last half of the run.
func train(p DirPredictor, pcs []uint64, pattern func(i int, pc uint64) bool, n int) float64 {
	var hist GHR
	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		for _, pc := range pcs {
			taken := pattern(i, pc)
			pred := p.Predict(pc, hist)
			p.Update(pc, hist, taken)
			if i >= n/2 {
				counted++
				if pred == taken {
					correct++
				}
			}
			hist = hist.Push(taken)
		}
	}
	return float64(correct) / float64(counted)
}

func predictors() map[string]DirPredictor {
	return map[string]DirPredictor{
		"perceptron": NewPerceptron(DefaultPerceptronConfig()),
		"gshare":     NewGShare(14, 12),
		"bimodal":    NewBimodal(14),
		"hybrid":     NewHybrid(14, 12),
	}
}

func TestPredictorsLearnBiasedBranch(t *testing.T) {
	for name, p := range predictors() {
		acc := train(p, []uint64{100}, func(i int, _ uint64) bool { return true }, 500)
		if acc < 0.99 {
			t.Errorf("%s: always-taken accuracy %.3f < 0.99", name, acc)
		}
	}
}

func TestHistoryPredictorsLearnAlternating(t *testing.T) {
	// T,N,T,N... is perfectly predictable from one history bit; bimodal
	// cannot learn it, the others must.
	for _, name := range []string{"perceptron", "gshare", "hybrid"} {
		p := predictors()[name]
		acc := train(p, []uint64{200}, func(i int, _ uint64) bool { return i%2 == 0 }, 1000)
		if acc < 0.95 {
			t.Errorf("%s: alternating accuracy %.3f < 0.95", name, acc)
		}
	}
}

func TestHistoryPredictorsLearnPeriodicPattern(t *testing.T) {
	// Period-5 pattern TTNTN.
	pat := []bool{true, true, false, true, false}
	for _, name := range []string{"perceptron", "gshare", "hybrid"} {
		p := predictors()[name]
		acc := train(p, []uint64{300}, func(i int, _ uint64) bool { return pat[i%len(pat)] }, 2000)
		if acc < 0.9 {
			t.Errorf("%s: periodic accuracy %.3f < 0.9", name, acc)
		}
	}
}

func TestPredictorsNearChanceOnRandom(t *testing.T) {
	// A pseudo-random data-dependent branch should stay close to chance.
	seed := uint64(12345)
	rnd := func() bool {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed>>63 == 1
	}
	outcomes := make([]bool, 20000)
	for i := range outcomes {
		outcomes[i] = rnd()
	}
	for name, p := range predictors() {
		acc := train(p, []uint64{400}, func(i int, _ uint64) bool { return outcomes[i] }, len(outcomes))
		if acc > 0.65 {
			t.Errorf("%s: random accuracy %.3f suspiciously high", name, acc)
		}
	}
}

func TestBimodalIgnoresHistory(t *testing.T) {
	b := NewBimodal(10)
	b.Update(7, 0, true)
	b.Update(7, 0, true)
	if b.Predict(7, 0) != b.Predict(7, 0xFFFF) {
		t.Error("bimodal prediction depends on history")
	}
}

func TestPerceptronSaturation(t *testing.T) {
	p := NewPerceptron(PerceptronConfig{Entries: 4, HistoryBits: 8})
	for i := 0; i < 10000; i++ {
		p.Update(0, 0, true)
	}
	// Weights must be saturated, not overflowed: prediction stays taken.
	if !p.Predict(0, 0) {
		t.Error("saturated perceptron flipped prediction")
	}
	for _, w := range p.weights.RO(0) {
		if w > 127 || w < -128 {
			t.Fatalf("weight %d out of int8 range", w)
		}
	}
}

func TestSatAdd(t *testing.T) {
	if satAdd(127, 1) != 127 {
		t.Error("satAdd(127,1)")
	}
	if satAdd(-128, -1) != -128 {
		t.Error("satAdd(-128,-1)")
	}
	if satAdd(10, -3) != 7 {
		t.Error("satAdd(10,-3)")
	}
}

func TestCounterQuickStaysInRange(t *testing.T) {
	f := func(updates []bool) bool {
		c := counter(2)
		for _, u := range updates {
			c = c.update(u)
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictorNames(t *testing.T) {
	want := map[string]string{
		"perceptron": "perceptron", "gshare": "gshare",
		"bimodal": "bimodal", "hybrid": "hybrid",
	}
	for k, p := range predictors() {
		if p.Name() != want[k] {
			t.Errorf("%s.Name() = %q", k, p.Name())
		}
	}
	if (StaticTaken{}).Name() != "static-taken" || (StaticNotTaken{}).Name() != "static-nottaken" {
		t.Error("static predictor names")
	}
	if !(StaticTaken{}).Predict(0, 0) || (StaticNotTaken{}).Predict(0, 0) {
		t.Error("static predictions wrong")
	}
}

func TestBadConfigsPanic(t *testing.T) {
	cases := []func(){
		func() { NewPerceptron(PerceptronConfig{Entries: 0, HistoryBits: 10}) },
		func() { NewPerceptron(PerceptronConfig{Entries: 10, HistoryBits: 64}) },
		func() { NewGShare(0, 0) },
		func() { NewGShare(10, 11) },
		func() { NewBimodal(0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestHybridChooserPrefersBetterComponent(t *testing.T) {
	// An alternating branch: gshare learns it, bimodal cannot. After
	// training, the hybrid must predict like gshare.
	h := NewHybrid(12, 10)
	var hist GHR
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		h.Update(50, hist, taken)
		hist = hist.Push(taken)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		taken := i%2 == 0
		if h.Predict(50, hist) == taken {
			correct++
		}
		h.Update(50, hist, taken)
		hist = hist.Push(taken)
	}
	if correct < 95 {
		t.Errorf("hybrid alternating correct = %d/100", correct)
	}
}

// referenceOutput is the scalar perceptron dot product: add the weight
// for a taken history bit, subtract it for a not-taken one.
func referenceOutput(w []int8, hist GHR) int32 {
	y := int32(w[0])
	for i := 0; i < len(w)-1; i++ {
		if hist>>uint(i)&1 == 1 {
			y += int32(w[i+1])
		} else {
			y -= int32(w[i+1])
		}
	}
	return y
}

// TestPerceptronOutputMatchesReference pins the branch-free dot product
// to the scalar loop it replaced: random rows, rows saturated at +127,
// at -128 and alternating between them, under every single history bit,
// all bits, no bits and random histories.
func TestPerceptronOutputMatchesReference(t *testing.T) {
	cfg := DefaultPerceptronConfig()
	p := NewPerceptron(cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < p.weights.Len(); i++ {
		w := p.weights.Mut(i)
		for j := range w {
			switch i % 4 {
			case 0:
				w[j] = 127
			case 1:
				w[j] = -128
			case 2:
				w[j] = int8(127 - 255*(j%2))
			default:
				w[j] = int8(rng.Intn(256) - 128)
			}
		}
	}
	hists := []GHR{0, 1<<cfg.HistoryBits - 1, ^GHR(0)}
	for b := 0; b < cfg.HistoryBits; b++ {
		hists = append(hists, 1<<b, (1<<cfg.HistoryBits-1)&^(1<<b))
	}
	for k := 0; k < 200; k++ {
		hists = append(hists, GHR(rng.Uint64()))
	}
	for i := 0; i < p.weights.Len(); i++ {
		for _, h := range hists {
			if got, want := p.output(i, h), referenceOutput(p.weights.RO(i), h); got != want {
				t.Fatalf("row %d hist %#x: output %d, want %d", i, uint64(h), got, want)
			}
		}
	}
}

// TestPerceptronPredictUpdateMatchesPair pins that the single-pass
// PredictUpdate warming uses predicts and trains exactly as Predict
// followed by Update, including at saturation.
func TestPerceptronPredictUpdateMatchesPair(t *testing.T) {
	a := NewPerceptron(PerceptronConfig{Entries: 31, HistoryBits: 59})
	b := NewPerceptron(PerceptronConfig{Entries: 31, HistoryBits: 59})
	rng := rand.New(rand.NewSource(2))
	var hist GHR
	for n := 0; n < 50000; n++ {
		pc := uint64(rng.Intn(64))
		taken := rng.Intn(4) != 0 // biased, so rows saturate
		want := a.Predict(pc, hist)
		a.Update(pc, hist, taken)
		if got := b.PredictUpdate(pc, hist, taken); got != want {
			t.Fatalf("step %d: PredictUpdate predicted %v, Predict %v", n, got, want)
		}
		hist = hist.Push(taken)
	}
	for i := 0; i < a.weights.Len(); i++ {
		wa, wb := a.weights.RO(i), b.weights.RO(i)
		for j := range wa {
			if wa[j] != wb[j] {
				t.Fatalf("row %d weight %d: %d after PredictUpdate, %d after Predict+Update", i, j, wb[j], wa[j])
			}
		}
	}
}
