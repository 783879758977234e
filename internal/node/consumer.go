package node

import (
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// ReferenceReader is the read surface a consumer lookup needs: one head
// state, which holds the whole reference. Both *chain.Chain (a copy of
// its published view's state) and *chain.ReadView satisfy it, and neither
// touches the chain mutex: the RPC layer assembles references from the
// view it pinned for the request, and two nodes at one state root answer
// alike however each got there.
type ReferenceReader interface {
	State() *state.DB
}

// Consumer is an IoT consumer client: before deploying a released system
// it looks up the blockchain and obtains an authoritative, complete and
// consistent reference of the system's detection results (paper §IV-A).
type Consumer struct {
	reader   ReferenceReader
	contract *contract.Contract
	// MaxTolerated is the most confirmed vulnerabilities the consumer
	// accepts before advising against deployment ("consumers can deploy
	// IoT systems only if no (or less) vulnerability is discovered").
	MaxTolerated uint64
}

// NewConsumer builds a consumer client over a provider's chain (or a
// pinned read view of it).
func NewConsumer(c ReferenceReader, sc *contract.Contract, maxTolerated uint64) *Consumer {
	return &Consumer{reader: c, contract: sc, MaxTolerated: maxTolerated}
}

// Reference is the consumer-facing security summary for one release.
type Reference struct {
	SRAID types.Hash
	// Provider is the accountable releasing party.
	Provider types.Address
	// ConfirmedVulns counts the AutoVerif-confirmed vulnerabilities.
	ConfirmedVulns uint64
	// BySeverity tallies the confirmed findings by risk class; a class
	// with none is absent. The findings themselves are public in the R*
	// transactions that revealed them.
	BySeverity map[types.Severity]int
	// Reports counts the successful detection-report transactions on the
	// chain for this release (initial + detailed).
	Reports int
	// InsuranceRemaining is the provider's still-escrowed stake.
	InsuranceRemaining types.Amount
	// SafeToDeploy is the consumer's verdict under its tolerance.
	SafeToDeploy bool
}

// Lookup assembles the authoritative reference for an SRA from the
// contract's record in the reader's state.
func (c *Consumer) Lookup(sraID types.Hash) (Reference, error) {
	info, err := c.contract.GetSRA(c.reader.State(), sraID)
	if err != nil {
		return Reference{}, fmt.Errorf("node: consumer lookup: %w", err)
	}
	ref := Reference{
		SRAID:              sraID,
		Provider:           info.Provider,
		ConfirmedVulns:     info.ConfirmedVulns,
		BySeverity:         make(map[types.Severity]int, 3),
		Reports:            int(info.Reports),
		InsuranceRemaining: info.InsuranceRemaining,
		SafeToDeploy:       info.ConfirmedVulns <= c.MaxTolerated,
	}
	for sev := types.SeverityLow; sev <= types.SeverityHigh; sev++ {
		if n := info.BySeverity(sev); n > 0 {
			ref.BySeverity[sev] = int(n)
		}
	}
	return ref, nil
}
