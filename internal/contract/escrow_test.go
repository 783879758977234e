package contract

import (
	"encoding/binary"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/vm"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// EscrowSource is the SCVM assembly of the SmartCrowd escrow: the
// value-custody core of the SmartCrowd contract expressed as real
// bytecode. It demonstrates that the incentive mechanism runs on the
// chain's contract VM (as the paper's Solidity prototype does on the EVM)
// and anchors the gas calibration used by Fig. 6(b).
//
// ABI (big-endian 32-byte words in calldata):
//
//	word0 = 1 (INIT):     records the caller as owner; callable once.
//	word0 = 2 (DEPOSIT):  banks the attached call value.
//	word0 = 3 (PAY):      word1 = payee, word2 = amount; owner-only,
//	                      transfers amount out of the banked balance.
//
// Storage: slot 0 holds the owner address, slot 1 the banked balance.
const EscrowSource = `
; ---- method dispatch ----
PUSH 0
CALLDATALOAD      ; method selector
DUP1
PUSH 1
EQ
PUSH @init
JUMPI
DUP1
PUSH 2
EQ
PUSH @deposit
JUMPI
DUP1
PUSH 3
EQ
PUSH @pay
JUMPI
PUSH 0
PUSH 0
REVERT

; ---- INIT: claim ownership exactly once ----
init:
POP
PUSH 0
SLOAD
ISZERO
PUSH @init_ok
JUMPI
PUSH 0
PUSH 0
REVERT
init_ok:
CALLER
PUSH 0
SSTORE
STOP

; ---- DEPOSIT: bank the attached value ----
deposit:
POP
CALLVALUE
PUSH 1
SLOAD
ADD
PUSH 1
SSTORE
STOP

; ---- PAY: owner-only bounty payout ----
pay:
POP
CALLER
PUSH 0
SLOAD
EQ
PUSH @auth_ok
JUMPI
PUSH 0
PUSH 0
REVERT
auth_ok:
PUSH 32
CALLDATALOAD      ; payee
PUSH 64
CALLDATALOAD      ; amount        stack: [amount payee]
DUP1
PUSH 1
SLOAD             ; [bal amount amount payee]
LT                ; bal < amount ?
ISZERO
PUSH @funds_ok
JUMPI
PUSH 0
PUSH 0
REVERT
funds_ok:
DUP1              ; [amount amount payee]
PUSH 1
SLOAD             ; [bal amount amount payee]
SUB               ; [bal-amount amount payee]
PUSH 1
SSTORE            ; [amount payee]
SWAP1             ; [payee amount]
TRANSFER
STOP
`

// EscrowCode is the assembled escrow bytecode.
var EscrowCode = vm.MustAssemble(EscrowSource)

// Escrow method selectors.
const (
	EscrowMethodInit    uint64 = 1
	EscrowMethodDeposit uint64 = 2
	EscrowMethodPay     uint64 = 3
)

// EscrowInput builds calldata for the escrow contract: the method selector
// followed by optional 32-byte argument words.
func EscrowInput(method uint64, args ...[32]byte) []byte {
	buf := make([]byte, 32, 32+32*len(args))
	binary.BigEndian.PutUint64(buf[24:], method)
	for _, a := range args {
		buf = append(buf, a[:]...)
	}
	return buf
}

// AddressWord encodes an address as a 32-byte calldata word.
func AddressWord(a types.Address) [32]byte {
	var w [32]byte
	copy(w[12:], a[:])
	return w
}

// AmountWord encodes an amount as a 32-byte calldata word.
func AmountWord(a types.Amount) [32]byte {
	var w [32]byte
	binary.BigEndian.PutUint64(w[24:], uint64(a))
	return w
}

// escrowEnv hosts the bytecode escrow at a test address.
type escrowEnv struct {
	st      *state.DB
	machine *vm.VM
	addr    types.Address
	owner   types.Address
}

func newEscrowEnv(t *testing.T) *escrowEnv {
	t.Helper()
	env := &escrowEnv{
		st:    state.New(),
		addr:  wallet.NewDeterministic("escrow-contract").Address(),
		owner: wallet.NewDeterministic("escrow-owner").Address(),
	}
	env.st.SetCode(env.addr, EscrowCode)
	env.machine = vm.New(env.st, vm.BlockContext{Number: 1, Time: 1000})
	return env
}

// call invokes the escrow; value is credited to the contract first, like
// the chain executor does.
func (e *escrowEnv) call(t *testing.T, caller types.Address, value types.Amount, input []byte) (vm.Result, error) {
	t.Helper()
	if value > 0 {
		if err := e.st.Transfer(caller, e.addr, value); err != nil {
			t.Fatal(err)
		}
	}
	return e.machine.Execute(EscrowCode, vm.CallContext{
		Caller:   caller,
		Contract: e.addr,
		Value:    value,
		Input:    input,
		GasLimit: 1_000_000,
	})
}

func TestEscrowInitOnce(t *testing.T) {
	env := newEscrowEnv(t)
	res, err := env.call(t, env.owner, 0, EscrowInput(EscrowMethodInit))
	if err != nil || res.Reverted {
		t.Fatalf("init failed: %v (reverted=%v)", err, res.Reverted)
	}
	// Second init must revert.
	res, err = env.call(t, env.owner, 0, EscrowInput(EscrowMethodInit))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reverted {
		t.Error("re-init did not revert")
	}
}

func TestEscrowDepositAndPay(t *testing.T) {
	env := newEscrowEnv(t)
	payee := wallet.NewDeterministic("payee").Address()
	_ = env.st.Credit(env.owner, types.EtherAmount(100))

	if res, err := env.call(t, env.owner, 0, EscrowInput(EscrowMethodInit)); err != nil || res.Reverted {
		t.Fatalf("init: %v", err)
	}
	if res, err := env.call(t, env.owner, types.EtherAmount(50), EscrowInput(EscrowMethodDeposit)); err != nil || res.Reverted {
		t.Fatalf("deposit: %v", err)
	}
	res, err := env.call(t, env.owner, 0,
		EscrowInput(EscrowMethodPay, AddressWord(payee), AmountWord(types.EtherAmount(20))))
	if err != nil || res.Reverted {
		t.Fatalf("pay: %v (reverted=%v)", err, res.Reverted)
	}
	if env.st.Balance(payee) != types.EtherAmount(20) {
		t.Errorf("payee balance %s, want 20 ETH", env.st.Balance(payee))
	}
	if env.st.Balance(env.addr) != types.EtherAmount(30) {
		t.Errorf("escrow balance %s, want 30 ETH", env.st.Balance(env.addr))
	}
}

func TestEscrowPayUnauthorized(t *testing.T) {
	env := newEscrowEnv(t)
	mallory := wallet.NewDeterministic("mallory").Address()
	_ = env.st.Credit(env.owner, types.EtherAmount(100))
	if res, err := env.call(t, env.owner, 0, EscrowInput(EscrowMethodInit)); err != nil || res.Reverted {
		t.Fatalf("init: %v", err)
	}
	if res, err := env.call(t, env.owner, types.EtherAmount(50), EscrowInput(EscrowMethodDeposit)); err != nil || res.Reverted {
		t.Fatalf("deposit: %v", err)
	}
	res, err := env.call(t, mallory, 0,
		EscrowInput(EscrowMethodPay, AddressWord(mallory), AmountWord(types.EtherAmount(50))))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reverted {
		t.Error("non-owner payout did not revert")
	}
	if env.st.Balance(mallory) != 0 {
		t.Error("mallory extracted funds")
	}
}

func TestEscrowPayOverdraw(t *testing.T) {
	env := newEscrowEnv(t)
	payee := wallet.NewDeterministic("payee").Address()
	_ = env.st.Credit(env.owner, types.EtherAmount(100))
	if res, err := env.call(t, env.owner, 0, EscrowInput(EscrowMethodInit)); err != nil || res.Reverted {
		t.Fatalf("init: %v", err)
	}
	if res, err := env.call(t, env.owner, types.EtherAmount(10), EscrowInput(EscrowMethodDeposit)); err != nil || res.Reverted {
		t.Fatalf("deposit: %v", err)
	}
	res, err := env.call(t, env.owner, 0,
		EscrowInput(EscrowMethodPay, AddressWord(payee), AmountWord(types.EtherAmount(11))))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reverted {
		t.Error("overdraw did not revert")
	}
}

func TestEscrowUnknownMethodReverts(t *testing.T) {
	env := newEscrowEnv(t)
	res, err := env.call(t, env.owner, 0, EscrowInput(99))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reverted {
		t.Error("unknown method did not revert")
	}
}

// TestEscrowDifferentialAgainstNative drives the same deposit/pay sequence
// through the SCVM escrow and the native contract payout path and checks
// both move the same amounts.
func TestEscrowDifferentialAgainstNative(t *testing.T) {
	// Bytecode path.
	env := newEscrowEnv(t)
	payee := wallet.NewDeterministic("payee").Address()
	_ = env.st.Credit(env.owner, types.EtherAmount(1000))
	if res, err := env.call(t, env.owner, 0, EscrowInput(EscrowMethodInit)); err != nil || res.Reverted {
		t.Fatalf("init: %v", err)
	}
	if res, err := env.call(t, env.owner, types.EtherAmount(1000), EscrowInput(EscrowMethodDeposit)); err != nil || res.Reverted {
		t.Fatalf("deposit: %v", err)
	}
	for i := 0; i < 3; i++ {
		res, err := env.call(t, env.owner, 0,
			EscrowInput(EscrowMethodPay, AddressWord(payee), AmountWord(types.EtherAmount(5))))
		if err != nil || res.Reverted {
			t.Fatalf("pay %d: %v", i, err)
		}
	}
	bytecodePaid := env.st.Balance(payee)

	// Native path: one SRA with insurance 1000, bounty 5, three findings.
	f := newFixture(t, acceptAll)
	payout, err := f.submitPair(t, findings("V-1", "V-2", "V-3"), 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if types.Amount(payout.Paid) != bytecodePaid {
		t.Errorf("native paid %s, bytecode paid %s", payout.Paid, bytecodePaid)
	}
}

// TestEscrowGasCosts pins the bytecode gas costs that anchor the Fig. 6(b)
// calibration: a payout costs a few tens of thousands of gas, well under
// the calibrated 110k per report (which also covers signature checks and
// storage bookkeeping the native path performs).
func TestEscrowGasCosts(t *testing.T) {
	env := newEscrowEnv(t)
	payee := wallet.NewDeterministic("payee").Address()
	_ = env.st.Credit(env.owner, types.EtherAmount(100))
	res, err := env.call(t, env.owner, 0, EscrowInput(EscrowMethodInit))
	if err != nil {
		t.Fatal(err)
	}
	if res.GasUsed < vm.GasSStoreSet {
		t.Errorf("init gas %d implausibly low", res.GasUsed)
	}
	if res, err = env.call(t, env.owner, types.EtherAmount(50), EscrowInput(EscrowMethodDeposit)); err != nil {
		t.Fatal(err)
	}
	depositGas := res.GasUsed
	if res, err = env.call(t, env.owner, 0,
		EscrowInput(EscrowMethodPay, AddressWord(payee), AmountWord(types.EtherAmount(1)))); err != nil {
		t.Fatal(err)
	}
	payGas := res.GasUsed
	// The first deposit pays the 20k zero→non-zero SSTORE tier; pay only
	// resets the slot (5k) but adds the 9k TRANSFER, so both sit in the
	// 10k-30k band and pay must at least cover transfer + reset.
	if payGas < vm.GasTransfer+vm.GasSStoreReset {
		t.Errorf("pay gas %d below transfer+reset floor", payGas)
	}
	if depositGas < vm.GasSStoreSet {
		t.Errorf("first deposit gas %d below the set tier", depositGas)
	}
	params := DefaultParams()
	if payGas+vm.IntrinsicGas(EscrowInput(EscrowMethodPay), false) > params.GasDetailedReport {
		t.Errorf("bytecode payout (%d gas) exceeds the calibrated report gas %d",
			payGas, params.GasDetailedReport)
	}
}
