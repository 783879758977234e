package p2p

import (
	"bytes"
	"encoding/hex"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// TestAnnounceAndTxRequestLayout pins the two relay payloads byte for
// byte (PROTOCOL.md §5): an item-kind byte then bare 32-byte ids, and bare
// ids alone. There is no count field to lie in.
func TestAnnounceAndTxRequestLayout(t *testing.T) {
	ids := []types.Hash{fuzzHash(0xaa), fuzzHash(0xbb)}
	wantIDs := hex.EncodeToString(bytes.Repeat([]byte{0xaa}, 32)) + hex.EncodeToString(bytes.Repeat([]byte{0xbb}, 32))
	if got := hex.EncodeToString(EncodeAnnounce(MsgTx, ids)); got != "01"+wantIDs {
		t.Errorf("tx announce encodes to %s", got)
	}
	if got := hex.EncodeToString(EncodeAnnounce(MsgBlock, ids[:1])); got != "02"+wantIDs[:64] {
		t.Errorf("block announce encodes to %s", got)
	}
	if got := hex.EncodeToString(EncodeTxRequest(ids)); got != wantIDs {
		t.Errorf("tx request encodes to %s", got)
	}
	if MsgAnnounce != 11 || MsgTxRequest != 12 {
		t.Errorf("frame kinds moved: announce %d, tx-request %d", MsgAnnounce, MsgTxRequest)
	}

	item, list, err := ParseAnnounce(EncodeAnnounce(MsgBlock, ids))
	if err != nil || item != MsgBlock || list.Len() != 2 || list.At(0) != ids[0] || list.At(1) != ids[1] {
		t.Errorf("announce round trip: item %v, %d ids, err %v", item, list.Len(), err)
	}
	list, err = ParseTxRequest(EncodeTxRequest(ids))
	if err != nil || list.Len() != 2 || list.At(1) != ids[1] {
		t.Errorf("tx request round trip: %d ids, err %v", list.Len(), err)
	}
}

// TestRelayPayloadsRejectedWithoutAllocation: oversized, ragged, empty and
// mis-kinded payloads are counted malformed, and neither the rejection nor
// an acceptance at the cap allocates — the ids are a view over the frame.
func TestRelayPayloadsRejectedWithoutAllocation(t *testing.T) {
	full := make([]types.Hash, MaxAnnounceIDs)
	atCap := EncodeAnnounce(MsgTx, full)
	bad := map[string][]byte{
		"empty":             nil,
		"kind only":         {byte(MsgTx)},
		"ragged":            atCap[:len(atCap)-1],
		"one id over cap":   append(append([]byte(nil), atCap...), make([]byte, types.HashSize)...),
		"far over cap":      make([]byte, 1+100_000*types.HashSize),
		"item kind 0":       append([]byte{0}, atCap[1:]...),
		"item kind request": append([]byte{byte(MsgBlockRequest)}, atCap[1:]...),
	}
	before := mMalformedGossipAnnounce.Value()
	for name, payload := range bad {
		if _, _, err := ParseAnnounce(payload); err == nil {
			t.Errorf("announce %s: accepted", name)
		}
	}
	if got := mMalformedGossipAnnounce.Value() - before; got != uint64(len(bad)) {
		t.Errorf("malformed-announce counter moved by %d over %d rejections", got, len(bad))
	}
	if _, list, err := ParseAnnounce(atCap); err != nil || list.Len() != MaxAnnounceIDs {
		t.Errorf("announce at the cap: %d ids, err %v", list.Len(), err)
	}

	before = mMalformedTxReq.Value()
	badReq := [][]byte{nil, atCap[:types.HashSize+1], make([]byte, (MaxAnnounceIDs+1)*types.HashSize)}
	for _, payload := range badReq {
		if _, err := ParseTxRequest(payload); err == nil {
			t.Errorf("tx request of %d bytes: accepted", len(payload))
		}
	}
	if got := mMalformedTxReq.Value() - before; got != uint64(len(badReq)) {
		t.Errorf("malformed-tx-request counter moved by %d over %d rejections", got, len(badReq))
	}

	for name, parse := range map[string]func(){
		"announce at cap":   func() { _, _, _ = ParseAnnounce(atCap) },
		"tx request at cap": func() { _, _ = ParseTxRequest(atCap[1:]) },
	} {
		if n := testing.AllocsPerRun(20, parse); n != 0 {
			t.Errorf("%s: %.0f allocations, want 0", name, n)
		}
	}
	// A rejection allocates its error message and nothing that grows with
	// the payload.
	for _, name := range []string{"one id over cap", "far over cap"} {
		payload := bad[name]
		if n := testing.AllocsPerRun(20, func() { _, _, _ = ParseAnnounce(payload) }); n > 8 {
			t.Errorf("rejecting an announce %s costs %.0f allocations", name, n)
		}
	}
}
