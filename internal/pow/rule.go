package pow

import (
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Header rule errors, wrapped by every refusal of a header's seal or
// link, on a full node, its snapshot prefix and a light client alike.
var (
	ErrBadPoW        = errors.New("pow: header does not meet proof-of-work")
	ErrUnknownParent = errors.New("pow: unknown parent block")
	ErrBadNumber     = errors.New("pow: block number not parent+1")
	ErrBadTimestamp  = errors.New("pow: timestamp not after parent")
	ErrBadDifficulty = errors.New("pow: block difficulty violates the retarget rule")
)

// Rule is what a valid header is: the one definition the chain's import,
// its snapshot prefix and the light client all call. It is a value, so
// checking a header allocates nothing. The zero value is Declared.
type Rule struct {
	// Retarget, when set, also holds each block's difficulty to the one
	// it derives from the parent (Next), as live, CPU-sealed chains do.
	Retarget DifficultyConfig
	sampled  bool
}

var (
	// Declared holds each nonce to its header's declared difficulty.
	Declared = Rule{}
	// Sampled holds no nonce to anything: a simulated chain's seal is
	// drawn (SimSealer) or left as built (AsBuilt), not ground.
	Sampled = Rule{sampled: true}
)

// Seal checks what needs no other header: that h's nonce meets its
// declared difficulty, unless the rule is Sampled.
func (r Rule) Seal(h *types.Header) error {
	if r.sampled || h.MeetsPoW() {
		return nil
	}
	return ErrBadPoW
}

// Link checks h against its parent: the number is the parent's plus one,
// the time strictly after the parent's, and, with Retarget set, the
// difficulty is Next's.
func (r Rule) Link(parent, h *types.Header) error {
	if h.Number != parent.Number+1 {
		return fmt.Errorf("%w: parent %d, block %d", ErrBadNumber, parent.Number, h.Number)
	}
	if h.Time <= parent.Time {
		return fmt.Errorf("%w: parent %d, block %d", ErrBadTimestamp, parent.Time, h.Time)
	}
	if r.Retarget == (DifficultyConfig{}) {
		return nil
	}
	if want := r.Next(parent, h.Time); h.Difficulty != want {
		return fmt.Errorf("%w: declared %d, retarget rule requires %d", ErrBadDifficulty, h.Difficulty, want)
	}
	return nil
}

// Next returns the difficulty Retarget requires of a child of parent
// stamped at childTime (milliseconds).
func (r Rule) Next(parent *types.Header, childTime uint64) uint64 {
	if parent.Number == 0 && parent.Difficulty == 0 {
		return r.Retarget.Minimum // the first block after a difficulty-less genesis
	}
	return NextDifficulty(r.Retarget, parent.Difficulty, parent.Time/1000, childTime/1000)
}

// DifficultyConfig tunes the retargeting rule. The paper fixes difficulty
// at 0xf00000 for its testnet, but a deployable SmartCrowd must retarget
// as providers join and leave: this is the Homestead-style rule geth
// applies, which the paper's substrate inherits.
type DifficultyConfig struct {
	// TargetBlockTime is the desired seconds-per-block.
	TargetBlockTime uint64
	// BoundDivisor controls the adjustment step (parent/2048 in Ethereum).
	BoundDivisor uint64
	// Minimum clamps the difficulty floor.
	Minimum uint64
}

// NextDifficulty computes a child block's difficulty from its parent, in
// the style of Ethereum Homestead:
//
//	diff = parent + parent/2048 * max(1 - (t_child - t_parent)/target, -99)
//
// clamped below by cfg.Minimum.
func NextDifficulty(cfg DifficultyConfig, parentDifficulty, parentTimeSec, childTimeSec uint64) uint64 {
	if cfg.BoundDivisor == 0 {
		cfg.BoundDivisor = 2048
	}
	if cfg.TargetBlockTime == 0 {
		cfg.TargetBlockTime = 15
	}
	step := parentDifficulty / cfg.BoundDivisor
	if step == 0 {
		step = 1
	}

	var elapsed uint64
	if childTimeSec > parentTimeSec {
		elapsed = childTimeSec - parentTimeSec
	}
	factor := int64(1) - int64(elapsed/cfg.TargetBlockTime)
	if factor < -99 {
		factor = -99
	}

	next := int64(parentDifficulty) + int64(step)*factor
	if next < int64(cfg.Minimum) {
		return cfg.Minimum
	}
	return uint64(next)
}
