package node

import (
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// ReferenceReader is the read surface a consumer lookup needs. Both
// *chain.Chain (locked reads) and *chain.ReadView (a lock-free head
// snapshot) satisfy it, so the RPC layer can assemble references from a
// pinned view without touching the chain mutex.
type ReferenceReader interface {
	State() *state.DB
	DetectionResults(sraID types.Hash) []chain.DetectionRecord
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
	// BySeverity tallies the confirmed findings by risk class.
	BySeverity map[types.Severity]int
	// Findings lists the confirmed vulnerabilities.
	Findings []types.Finding
	// Reports counts detection-report transactions on the chain for this
	// release (initial + detailed).
	Reports int
	// InsuranceRemaining is the provider's still-escrowed stake.
	InsuranceRemaining types.Amount
	// SafeToDeploy is the consumer's verdict under its tolerance.
	SafeToDeploy bool
}

// Lookup assembles the authoritative reference for an SRA.
func (c *Consumer) Lookup(sraID types.Hash) (Reference, error) {
	st := c.reader.State()
	info, err := c.contract.GetSRA(st, sraID)
	if err != nil {
		return Reference{}, fmt.Errorf("node: consumer lookup: %w", err)
	}
	ref := Reference{
		SRAID:              sraID,
		Provider:           info.Provider,
		ConfirmedVulns:     info.ConfirmedVulns,
		BySeverity:         make(map[types.Severity]int, 3),
		InsuranceRemaining: info.InsuranceRemaining,
	}
	records := c.reader.DetectionResults(sraID)
	ref.Reports = len(records)
	for _, rec := range records {
		if rec.Tx.Kind != types.TxDetailedReport || !rec.Receipt.Success {
			continue
		}
		for _, f := range rec.Receipt.Payout.Accepted {
			ref.Findings = append(ref.Findings, f)
			ref.BySeverity[f.Severity]++
		}
	}
	ref.SafeToDeploy = ref.ConfirmedVulns <= c.MaxTolerated
	return ref, nil
}
