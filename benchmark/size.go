package benchmark

import "time"

// sizing fixes how much work each workload does. Per-block cost grows
// with chain state, so every measured phase is a fixed amount of work
// split into equal rounds, not a fixed duration: two commits always do
// the same work, and the faster one simply finishes sooner. The amounts
// scale with the requested seconds from constants calibrated on the
// 2-core reference box so that a run measures for about that long.
type sizing struct {
	// lifecycle: settled SRAs preloaded on every node; lifecycles per round
	// (at full scale a multiple of the client count, so every client gets
	// the same share).
	lcPreload, lcPerRound int

	// txflood: funded senders = transfers per round; posting connections.
	floodSenders, floodConns int

	// readstorm: settled SRAs and blocks preloaded; readers; round length;
	// writer cadence; scheduled requests per reader (wraps around).
	rsSRAs, rsBlocks, rsReaders int
	rsRound, rsWriterEvery      time.Duration
	rsSchedule                  int

	// coldsync: source chain height, transfers per block, funded senders.
	csBlocks, csTxsPerBlock, csSenders int
}

func sizeFor(tiny bool, seconds int) sizing {
	if tiny {
		return sizing{
			lcPreload: 6, lcPerRound: 2,
			floodSenders: 12, floodConns: 2,
			rsSRAs: 8, rsBlocks: 30, rsReaders: 2,
			rsRound: 120 * time.Millisecond, rsWriterEvery: 40 * time.Millisecond, rsSchedule: 512,
			csBlocks: 40, csTxsPerBlock: 2, csSenders: 20,
		}
	}
	s := sizing{
		lcPreload:    200,
		lcPerRound:   lifecycleClients * max(1, seconds/3),
		floodSenders: max(50, seconds*60),
		floodConns:   2,
		rsSRAs:       300, rsBlocks: 200, rsReaders: 2,
		rsRound:       time.Duration(seconds) * time.Second / measuredRounds,
		rsWriterEvery: 100 * time.Millisecond,
		rsSchedule:    1 << 15,
		csBlocks:      max(64, seconds*60),
		csTxsPerBlock: 4,
		csSenders:     200,
	}
	return s
}
