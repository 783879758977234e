package pow

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

func TestCPUSealerFindsValidNonce(t *testing.T) {
	s := &CPUSealer{Threads: 2}
	hdr := types.Header{Number: 1, Time: 1, Difficulty: 64}
	sealed, err := s.Seal(hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sealed.MeetsPoW() {
		t.Error("sealed header fails verification")
	}
	if sealed.Number != hdr.Number || sealed.Difficulty != hdr.Difficulty {
		t.Error("sealing mutated non-nonce fields")
	}
}

func TestCPUSealerSingleThread(t *testing.T) {
	s := &CPUSealer{Threads: 1}
	hdr := types.Header{Number: 2, Time: 2, Difficulty: 16}
	sealed, err := s.Seal(hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sealed.MeetsPoW() {
		t.Error("single-threaded seal invalid")
	}
}

func TestCPUSealerAbort(t *testing.T) {
	s := &CPUSealer{Threads: 2}
	// Practically unreachable difficulty.
	hdr := types.Header{Number: 1, Time: 1, Difficulty: 1 << 62}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.Seal(hdr, stop)
		done <- err
	}()
	close(stop)
	select {
	case err := <-done:
		if !errors.Is(err, ErrSealAborted) {
			t.Errorf("err = %v, want ErrSealAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("seal did not abort")
	}
}

func TestVerifyRejectsUnsealed(t *testing.T) {
	hdr := types.Header{Number: 1, Difficulty: 1 << 62, Nonce: 12345}
	if hdr.MeetsPoW() {
		t.Error("unsealed header verified (astronomically unlikely)")
	}
}

func TestNewSimSealerValidation(t *testing.T) {
	if _, err := NewSimSealer(SimConfig{MeanBlockTime: time.Second}); !errors.Is(err, ErrNoMiners) {
		t.Errorf("no miners: err = %v", err)
	}
	if _, err := NewSimSealer(SimConfig{
		Miners:        []MinerPower{{Name: "x", HashShare: -1}},
		MeanBlockTime: time.Second,
	}); !errors.Is(err, ErrBadShares) {
		t.Errorf("negative share: err = %v", err)
	}
	if _, err := NewSimSealer(SimConfig{
		Miners: []MinerPower{{Name: "x", HashShare: 1}},
	}); err == nil {
		t.Error("zero block time accepted")
	}
}

func TestSimSealerDeterministic(t *testing.T) {
	mk := func() *SimSealer {
		s, err := NewSimSealer(SimConfig{
			Miners:        TopFiveEthereumShares(),
			MeanBlockTime: PaperMeanBlockTime,
			Seed:          42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		ea, eb := a.Next(), b.Next()
		if ea != eb {
			t.Fatalf("event %d diverged: %v vs %v", i, ea, eb)
		}
		// Seal stamps the nonce from the same stream and changes nothing else.
		hdr := types.Header{Number: uint64(i + 1), Difficulty: PaperBlockDifficulty}
		ha, err := a.Seal(hdr, nil)
		if err != nil {
			t.Fatal(err)
		}
		hb, _ := b.Seal(hdr, nil)
		if ha != hb {
			t.Fatalf("seal %d diverged: nonce %d vs %d", i, ha.Nonce, hb.Nonce)
		}
		if ha.Nonce = 0; ha != hdr {
			t.Fatalf("seal %d changed more than the nonce", i)
		}
	}
}

// TestSimSealerWinnerDistribution checks that over many rounds each
// provider wins in proportion to its hashing power — the property Fig. 3(a)
// and Fig. 4(a) rest on.
func TestSimSealerWinnerDistribution(t *testing.T) {
	miners := TopFiveEthereumShares()
	s, err := NewSimSealer(SimConfig{Miners: miners, MeanBlockTime: PaperMeanBlockTime, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200_000
	wins := make([]int, len(miners))
	for i := 0; i < rounds; i++ {
		wins[s.Next().Winner]++
	}
	total := 0.0
	for _, m := range miners {
		total += m.HashShare
	}
	for i, m := range miners {
		got := float64(wins[i]) / rounds
		want := m.HashShare / total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%s: win rate %.4f, want %.4f ± 0.01", m.Name, got, want)
		}
	}
}

// TestSimSealerBlockTimeDistribution checks mean and shape (exponential:
// variance ≈ mean²) of the interarrival distribution — Fig. 3(b).
func TestSimSealerBlockTimeDistribution(t *testing.T) {
	s, err := NewSimSealer(SimConfig{
		Miners:        TopFiveEthereumShares(),
		MeanBlockTime: PaperMeanBlockTime,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 100_000
	var sum, sumSq float64
	for i := 0; i < rounds; i++ {
		sec := s.Next().Interval.Seconds()
		sum += sec
		sumSq += sec * sec
	}
	mean := sum / rounds
	variance := sumSq/rounds - mean*mean
	wantMean := PaperMeanBlockTime.Seconds()
	if math.Abs(mean-wantMean)/wantMean > 0.02 {
		t.Errorf("mean block time %.2fs, want %.2fs ± 2%%", mean, wantMean)
	}
	// Exponential distribution: stddev == mean.
	if math.Abs(math.Sqrt(variance)-wantMean)/wantMean > 0.05 {
		t.Errorf("stddev %.2fs, want ≈ %.2fs (exponential shape)", math.Sqrt(variance), wantMean)
	}
}

func TestSimSealerNormalizesShares(t *testing.T) {
	// Shares that sum to 200% must behave like 50/50.
	s, err := NewSimSealer(SimConfig{
		Miners:        []MinerPower{{Name: "a", HashShare: 1.0}, {Name: "b", HashShare: 1.0}},
		MeanBlockTime: time.Second,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	wins := [2]int{}
	for i := 0; i < 50_000; i++ {
		wins[s.Next().Winner]++
	}
	ratio := float64(wins[0]) / float64(wins[0]+wins[1])
	if math.Abs(ratio-0.5) > 0.02 {
		t.Errorf("unnormalized shares skewed the lottery: %.3f", ratio)
	}
}

func TestTopFiveEthereumShares(t *testing.T) {
	shares := TopFiveEthereumShares()
	if len(shares) != 5 {
		t.Fatalf("want 5 providers, got %d", len(shares))
	}
	want := []float64{0.2630, 0.2250, 0.1490, 0.1180, 0.1010}
	for i, m := range shares {
		if m.HashShare != want[i] {
			t.Errorf("provider %d share = %v, want %v", i, m.HashShare, want[i])
		}
	}
}

func TestNextDifficulty(t *testing.T) {
	// The paper's environment: ~15-second blocks, Ethereum's step size and
	// its 0xf00000 testnet difficulty as the floor.
	cfg := DifficultyConfig{TargetBlockTime: 15, BoundDivisor: 2048, Minimum: 0xf00000}
	parent := uint64(0xf00000 * 4)

	t.Run("fast block raises difficulty", func(t *testing.T) {
		next := NextDifficulty(cfg, parent, 100, 105) // 5s < 15s target
		if next <= parent {
			t.Errorf("difficulty %d did not rise after fast block", next)
		}
	})
	t.Run("slow block lowers difficulty", func(t *testing.T) {
		next := NextDifficulty(cfg, parent, 100, 160) // 60s > 15s target
		if next >= parent {
			t.Errorf("difficulty %d did not fall after slow block", next)
		}
	})
	t.Run("floor respected", func(t *testing.T) {
		next := NextDifficulty(cfg, cfg.Minimum, 100, 100_000)
		if next != cfg.Minimum {
			t.Errorf("difficulty %d fell below floor %d", next, cfg.Minimum)
		}
	})
	t.Run("bounded drop", func(t *testing.T) {
		// factor clamps at -99, so one pathological block cannot zero the
		// difficulty of a large parent.
		huge := uint64(1) << 40
		next := NextDifficulty(cfg, huge, 0, 1<<30)
		if next < huge-huge/2048*99-1 {
			t.Errorf("difficulty dropped more than the clamp allows: %d", next)
		}
	})
	t.Run("zero-value config defaults", func(t *testing.T) {
		next := NextDifficulty(DifficultyConfig{}, 4096, 100, 105)
		if next == 0 {
			t.Error("zero config produced zero difficulty")
		}
	})
}

func TestHashRatePositive(t *testing.T) {
	if hr := HashRate(5_000); hr <= 0 {
		t.Errorf("HashRate = %v, want > 0", hr)
	}
}

func BenchmarkCPUSealDifficulty4096(b *testing.B) {
	s := &CPUSealer{Threads: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hdr := types.Header{Number: uint64(i), Time: 1, Difficulty: 4096}
		if _, err := s.Seal(hdr, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimSealerNext(b *testing.B) {
	s, err := NewSimSealer(SimConfig{
		Miners:        TopFiveEthereumShares(),
		MeanBlockTime: PaperMeanBlockTime,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

// Miners returns the configured miner set.
func (s *SimSealer) Miners() []MinerPower {
	return append([]MinerPower(nil), s.miners...)
}
