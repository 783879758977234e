package rpc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/light"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// env is a provider node with a mined detection lifecycle plus an RPC
// server in front of it.
type env struct {
	t        *testing.T
	server   *httptest.Server
	provider *node.ProviderNode
	sc       *contract.Contract
	alice    *wallet.Wallet
	detector *wallet.Wallet
	sra      *types.SRA
	dtxHash  types.Hash
}

func newEnv(t *testing.T) *env { return newEnvOn(t, nil) }

// envConfig is the chain configuration newEnvOn runs on, with storage as
// its backend (nil keeps the chain in memory).
func envConfig(sc *contract.Contract, storage chain.Storage) chain.Config {
	cfg := chain.DefaultConfig(sc)
	cfg.Rule = pow.Sampled
	cfg.Storage = storage
	cfg.Alloc = map[types.Address]types.Amount{
		wallet.NewDeterministic("alice").Address():    types.EtherAmount(5000),
		wallet.NewDeterministic("detector").Address(): types.EtherAmount(50),
	}
	return cfg
}

// newEnvOn builds newEnv's chain on a storage backend.
func newEnvOn(t *testing.T, storage chain.Storage) *env {
	t.Helper()
	alice := wallet.NewDeterministic("alice")
	detector := wallet.NewDeterministic("detector")
	verifier := detection.NewGroundTruthVerifier(false)
	sc := contract.New(contract.DefaultParams(), verifier)
	prov, err := node.NewProvider("rpc-provider", wallet.NewDeterministic("miner"), envConfig(sc, storage), nil)
	if err != nil {
		t.Fatal(err)
	}

	e := &env{
		t:        t,
		provider: prov,
		sc:       sc,
		alice:    alice,
		detector: detector,
	}

	// Release an SRA and run one report pair through.
	img := detection.GenerateImage("fw", "1.0", detection.UniverseSpec{High: 2, Seed: 3})
	e.sra = &types.SRA{
		Provider:     alice.Address(),
		Name:         img.Name,
		Version:      img.Version,
		SystemHash:   img.Hash(),
		DownloadLink: "sc://fw",
		Insurance:    types.EtherAmount(100),
		Bounty:       types.EtherAmount(5),
	}
	if err := types.SignSRA(e.sra, alice); err != nil {
		t.Fatal(err)
	}
	verifier.Register(e.sra.ID, img)
	sraTx := types.NewSRATx(e.sra, 0, 2_000_000, 50*types.GWei)
	if err := types.SignTx(sraTx, alice); err != nil {
		t.Fatal(err)
	}
	if err := prov.SubmitTx(sraTx); err != nil {
		t.Fatal(err)
	}
	e.mine()

	detailed := &types.DetailedReport{
		SRAID:    e.sra.ID,
		Detector: detector.Address(),
		Wallet:   detector.Address(),
		Findings: []types.Finding{{VulnID: img.Vulns[0].ID, Severity: img.Vulns[0].Severity}},
	}
	if err := types.SignDetailedReport(detailed, detector); err != nil {
		t.Fatal(err)
	}
	initial := &types.InitialReport{
		SRAID:      e.sra.ID,
		Detector:   detector.Address(),
		DetailHash: detailed.CommitmentHash(),
		Wallet:     detector.Address(),
	}
	if err := types.SignInitialReport(initial, detector); err != nil {
		t.Fatal(err)
	}
	itx := types.NewInitialReportTx(initial, 0, 150_000, 50*types.GWei)
	if err := types.SignTx(itx, detector); err != nil {
		t.Fatal(err)
	}
	if err := prov.SubmitTx(itx); err != nil {
		t.Fatal(err)
	}
	e.mine()
	dtx := types.NewDetailedReportTx(detailed, 1, 150_000, 50*types.GWei)
	if err := types.SignTx(dtx, detector); err != nil {
		t.Fatal(err)
	}
	if err := prov.SubmitTx(dtx); err != nil {
		t.Fatal(err)
	}
	e.mine()
	e.dtxHash = dtx.Hash()

	e.server = httptest.NewServer(NewServer(prov, sc))
	t.Cleanup(e.server.Close)
	return e
}

func (e *env) mine() {
	e.t.Helper()
	head := e.provider.Chain().Head()
	if _, err := e.provider.SealAndPublish(pow.AsBuilt{}, head.Header.Time+15_000, 1000, 0, nil); err != nil {
		e.t.Fatal(err)
	}
}

// get decodes a JSON response into out and returns the status code.
func (e *env) get(path string, out interface{}) int {
	e.t.Helper()
	resp, err := http.Get(e.server.URL + path)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			e.t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestStatusEndpoint(t *testing.T) {
	e := newEnv(t)
	var st StatusResponse
	if code := e.get("/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if st.HeadNumber != 3 {
		t.Errorf("head number %d, want 3", st.HeadNumber)
	}
	if st.HeadID == "" || st.TotalDifficulty == 0 {
		t.Error("status incomplete")
	}
}

func TestBlockEndpoint(t *testing.T) {
	e := newEnv(t)
	var blk BlockResponse
	if code := e.get("/v1/block/1", &blk); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if blk.Number != 1 || len(blk.TxHashes) != 1 {
		t.Errorf("block response %+v", blk)
	}
	if code := e.get("/v1/block/99", nil); code != http.StatusNotFound {
		t.Errorf("missing block returned %d", code)
	}
	if code := e.get("/v1/block/notanumber", nil); code != http.StatusBadRequest {
		t.Errorf("bad number returned %d", code)
	}
}

func TestBalanceEndpoint(t *testing.T) {
	e := newEnv(t)
	var bal BalanceResponse
	if code := e.get("/v1/balance/"+e.detector.Address().String(), &bal); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	// Detector paid gas twice and earned 5 ETH.
	if bal.Ether <= 50 || bal.Nonce != 2 {
		t.Errorf("balance %+v", bal)
	}
	if code := e.get("/v1/balance/zzzz", nil); code != http.StatusBadRequest {
		t.Errorf("bad address returned %d", code)
	}
}

func TestReceiptEndpoint(t *testing.T) {
	e := newEnv(t)
	var rec ReceiptResponse
	if code := e.get("/v1/receipt/"+e.dtxHash.String(), &rec); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if !rec.Success || rec.Kind != "detailed-report" || rec.PaidGwei != uint64(types.EtherAmount(5)) {
		t.Errorf("receipt %+v", rec)
	}
	ghost := types.HashBytes([]byte("ghost"))
	if code := e.get("/v1/receipt/"+ghost.String(), nil); code != http.StatusNotFound {
		t.Errorf("ghost receipt returned %d", code)
	}
}

func TestSRAAndReferenceEndpoints(t *testing.T) {
	e := newEnv(t)
	var sra SRAResponse
	if code := e.get("/v1/sra/"+e.sra.ID.String(), &sra); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if sra.ConfirmedVulns != 1 || sra.InsuranceRemaining != 95 || sra.Reports != 2 {
		t.Errorf("sra response %+v", sra)
	}

	var ref ReferenceResponse
	if code := e.get("/v1/reference/"+e.sra.ID.String(), &ref); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if ref.SafeToDeploy || ref.ConfirmedVulns != 1 || ref.BySeverity["high"] != 1 {
		t.Errorf("reference response %+v", ref)
	}
}

func TestProofEndpointVerifiesWithLightClient(t *testing.T) {
	e := newEnv(t)
	var pr ProofResponse
	if code := e.get("/v1/proof/"+e.dtxHash.String(), &pr); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	proof, body, err := ParseProofResponse(pr)
	if err != nil {
		t.Fatal(err)
	}
	// Sync a light client from the same node and verify the proof.
	blocks := e.provider.Chain().CanonicalBlocks()
	hc := light.NewHeaderChain(blocks[0].Header, pow.Sampled)
	for _, blk := range blocks[1:] {
		if err := hc.AddHeader(blk.Header); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := hc.VerifyTxWithBody(proof, body, 1)
	if err != nil {
		t.Fatalf("light client rejected RPC proof: %v", err)
	}
	if tx.Hash() != e.dtxHash {
		t.Error("proved a different transaction")
	}
}

func TestProofEndpointMissingTx(t *testing.T) {
	e := newEnv(t)
	ghost := types.HashBytes([]byte("ghost"))
	if code := e.get("/v1/proof/"+ghost.String(), nil); code != http.StatusNotFound {
		t.Errorf("ghost proof returned %d", code)
	}
}

func TestSubmitTxEndpoint(t *testing.T) {
	e := newEnv(t)
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    1,
		To:       types.Address{9},
		Value:    1,
		GasLimit: 21_000,
		GasPrice: 50 * types.GWei,
	}
	if err := types.SignTx(tx, e.alice); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(SubmitRequest{TxHex: hex.EncodeToString(types.EncodeTx(tx))})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(e.server.URL+"/v1/tx", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Pooled || sr.TxHash != tx.Hash().String() {
		t.Errorf("submit response %+v", sr)
	}
	if e.provider.PoolLen() != 1 {
		t.Error("tx not pooled")
	}
}

func TestSubmitTxRejectsGarbage(t *testing.T) {
	e := newEnv(t)
	for _, body := range []string{
		`not json`,
		`{"txHex":"zz"}`,
		fmt.Sprintf(`{"txHex":"%s"}`, hex.EncodeToString([]byte{0xc0})),
	} {
		resp, err := http.Post(e.server.URL+"/v1/tx", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("garbage body %q accepted", body)
		}
	}
}
