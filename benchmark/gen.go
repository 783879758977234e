package benchmark

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// Every input the cluster receives — keys, images, signed transactions,
// the read schedule — is derived here from the seed alone. Keys come from
// a hash stream over a label, names and image seeds from a seeded PRNG,
// and signatures are RFC 6979, so the same seed yields byte-identical
// transactions on every machine. Only generated values cross into code
// under internal/**: never the seed itself, never a workload name.

const (
	gasPrice        = 50 * types.GWei
	gasLimitSRA     = 2_000_000
	gasLimitReport  = 150_000
	gasLimitXfer    = 21_000
	findingsPerSRA  = 3
	senderFunding   = 1_000 // ether per transfer sender
	providerFunding = 1_000_000
)

// account is a funded wallet with the next nonce its generator will sign.
type account struct {
	w     *wallet.Wallet
	nonce uint64
}

func newAccount(seed int64, role string, i int) *account {
	w, err := wallet.New(&keyStream{label: fmt.Sprintf("scbench/%d/%s/%d", seed, role, i)})
	if err != nil {
		panic("scbench: key stream cannot fail: " + err.Error())
	}
	return &account{w: w}
}

// keyStream is the entropy a wallet is generated from: SHA-256 of the
// label and a block counter, so the wallet package sees 32 generated
// bytes and nothing of the label.
type keyStream struct {
	label string
	block uint32
	buf   []byte
}

func (k *keyStream) Read(p []byte) (int, error) {
	if len(k.buf) == 0 {
		sum := sha256.Sum256(fmt.Appendf(nil, "%s#%d", k.label, k.block))
		k.block++
		k.buf = sum[:]
	}
	n := copy(p, k.buf)
	k.buf = k.buf[n:]
	return n, nil
}

// signedTx is a transaction ready to POST: the decoded form for local
// chain building, its hash for lookups, and the /v1/tx request body.
type signedTx struct {
	tx   *types.Transaction
	hash types.Hash
	body []byte
}

func seal(tx *types.Transaction, from *account) (signedTx, error) {
	tx.Nonce = from.nonce
	tx.GasPrice = gasPrice
	if err := types.SignTx(tx, from.w); err != nil {
		return signedTx{}, err
	}
	from.nonce++
	raw := types.EncodeTx(tx)
	body := make([]byte, 0, len(raw)*2+16)
	body = append(body, `{"txHex":"`...)
	body = hex.AppendEncode(body, raw)
	body = append(body, `"}`...)
	return signedTx{tx: tx, hash: tx.Hash(), body: body}, nil
}

// lifecycle is one pass of the paper's loop, pre-signed: an SRA for a
// seeded image, the R† commitment and the R* reveal of its three
// vulnerabilities, and the verdict a consumer must read back.
type lifecycle struct {
	image  *detection.SystemImage
	sraID  types.Hash
	sra    signedTx
	init   signedTx
	detail signedTx
	// wantBySeverity is the ground truth the reference must report.
	wantBySeverity map[string]int
}

// genLifecycle signs one lifecycle for the given provider and detector
// accounts, consuming one provider nonce and two detector nonces. The
// split of the three vulnerabilities over severities is drawn from rng so
// reference bodies differ between lifecycles.
func genLifecycle(idx int, provider, detector *account, rng *rand.Rand) (*lifecycle, error) {
	var split [3]int
	for i := 0; i < findingsPerSRA; i++ {
		split[rng.Intn(3)]++
	}
	name := fmt.Sprintf("fw-%08x-%d", rng.Uint32(), idx)
	img := detection.GenerateImage(name, "1.0", detection.UniverseSpec{
		High: split[0], Medium: split[1], Low: split[2], Seed: rng.Int63(),
	})
	sra := &types.SRA{
		Provider:     provider.w.Address(),
		Name:         name,
		Version:      "1.0",
		SystemHash:   img.Hash(),
		DownloadLink: "sc://" + name,
		Insurance:    types.EtherAmount(100),
		Bounty:       types.EtherAmount(5),
	}
	if err := types.SignSRA(sra, provider.w); err != nil {
		return nil, err
	}
	lc := &lifecycle{image: img, sraID: sra.ID, wantBySeverity: make(map[string]int, 3)}
	findings := make([]types.Finding, 0, len(img.Vulns))
	for _, v := range img.Vulns {
		findings = append(findings, types.Finding{VulnID: v.ID, Severity: v.Severity, Evidence: "scbench"})
		lc.wantBySeverity[v.Severity.String()]++
	}
	detailed := &types.DetailedReport{
		SRAID:    sra.ID,
		Detector: detector.w.Address(),
		Wallet:   detector.w.Address(),
		Findings: findings,
	}
	if err := types.SignDetailedReport(detailed, detector.w); err != nil {
		return nil, err
	}
	initial := &types.InitialReport{
		SRAID:      sra.ID,
		Detector:   detector.w.Address(),
		DetailHash: detailed.CommitmentHash(),
		Wallet:     detector.w.Address(),
	}
	if err := types.SignInitialReport(initial, detector.w); err != nil {
		return nil, err
	}
	var err error
	if lc.sra, err = seal(types.NewSRATx(sra, 0, gasLimitSRA, 0), provider); err != nil {
		return nil, err
	}
	if lc.init, err = seal(types.NewInitialReportTx(initial, 0, gasLimitReport, 0), detector); err != nil {
		return nil, err
	}
	if lc.detail, err = seal(types.NewDetailedReportTx(detailed, 0, gasLimitReport, 0), detector); err != nil {
		return nil, err
	}
	return lc, nil
}

// genLifecycles signs n lifecycles spread round-robin over the given
// provider/detector pairs (pair k signs lifecycles k, k+len, ...), so each
// pair's nonces run in the order one closed-loop client will submit them.
// Pairs sign in parallel; the result does not depend on scheduling.
func genLifecycles(seed int64, first, n int, providers, detectors []*account) ([]*lifecycle, error) {
	out := make([]*lifecycle, n)
	errs := make([]error, len(providers))
	var wg sync.WaitGroup
	for k := range providers {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(first) + int64(k)))
			for i := k; i < n; i += len(providers) {
				lc, err := genLifecycle(first+i, providers[k], detectors[k], rng)
				if err != nil {
					errs[k] = err
					return
				}
				out[i] = lc
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generate lifecycles: %w", err)
		}
	}
	return out, nil
}

// genTransfers signs rounds×len(senders) transfers: in round r every
// sender pays its ring successor with its next nonce. out[r][i] is sender
// i's transfer of round r.
func genTransfers(senders []*account, rounds int) ([][]signedTx, error) {
	out := make([][]signedTx, rounds)
	for r := range out {
		out[r] = make([]signedTx, len(senders))
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(senders); i += workers {
				to := senders[(i+1)%len(senders)].w.Address()
				for r := 0; r < rounds; r++ {
					tx := &types.Transaction{Kind: types.TxTransfer, To: to, Value: types.Finny, GasLimit: gasLimitXfer}
					st, err := seal(tx, senders[i])
					if err != nil {
						errs[w] = err
						return
					}
					out[r][i] = st
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generate transfers: %w", err)
		}
	}
	return out, nil
}

// genAccounts derives n labelled accounts in parallel (key derivation is a
// scalar multiplication each).
func genAccounts(seed int64, role string, n int) []*account {
	out := make([]*account, n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i] = newAccount(seed, role, i)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// alloc funds accounts in a genesis allocation.
func alloc(into map[types.Address]types.Amount, ether uint64, accts ...*account) {
	for _, a := range accts {
		into[a.w.Address()] = types.EtherAmount(ether)
	}
}

// readKind is one of the five request shapes in the readstorm mix.
type readKind uint8

const (
	readReference readKind = iota
	readSRAPage
	readBlocks
	readReceipt
	readStatus
)

// readOp is one scheduled request. url is fixed at generation time except
// for readSRAPage, whose cursor comes from the previous page at run time.
type readOp struct {
	kind readKind
	url  string
	// idx is the SRA or receipt index the op targets (checked in the body).
	idx int
	// from is the first block of a readBlocks range.
	from uint64
	// replayETag asks the reader to send the URL's last ETag, if it has one.
	replayETag bool
}

const (
	blocksPerRange = 20
	sraPageLimit   = 50
)

// genReadSchedule draws n requests from the readstorm mix: 45 %
// /v1/reference/{id} with Zipf(1.1) popularity over the SRAs, 15 % SRA
// page walk, 15 % 20-block ranges uniform over the preloaded chain, 15 %
// receipts uniform over its transactions, 10 % status; one request in ten
// replays the URL's last ETag.
func genReadSchedule(rng *rand.Rand, n int, sraIDs, txHashes []types.Hash, preloadHead uint64) []readOp {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(sraIDs)-1))
	ops := make([]readOp, n)
	for i := range ops {
		op := readOp{replayETag: rng.Intn(10) == 0}
		switch p := rng.Intn(100); {
		case p < 45:
			op.kind, op.idx = readReference, int(zipf.Uint64())
			op.url = "/v1/reference/" + sraIDs[op.idx].String()
		case p < 60:
			op.kind = readSRAPage
		case p < 75:
			op.kind = readBlocks
			op.from = uint64(rng.Int63n(int64(preloadHead) - blocksPerRange + 2))
			op.url = fmt.Sprintf("/v1/blocks?from=%d&to=%d", op.from, op.from+blocksPerRange-1)
		case p < 90:
			op.kind, op.idx = readReceipt, rng.Intn(len(txHashes))
			op.url = "/v1/receipt/" + txHashes[op.idx].String()
		default:
			op.kind, op.url = readStatus, "/v1/status"
		}
		ops[i] = op
	}
	return ops
}
